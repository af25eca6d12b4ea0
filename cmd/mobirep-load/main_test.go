package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSmokeText(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sessions", "300", "-shards", "2", "-duration", "150ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"300 sessions over 2 shards", "sessions/sec", "p99="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONAndFloor(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sessions", "200", "-duration", "100ms", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var res map[string]any
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if res["Sessions"] != float64(200) {
		t.Errorf("JSON Sessions = %v, want 200", res["Sessions"])
	}
	// An impossible floor must fail the run.
	out.Reset()
	errb.Reset()
	code = run([]string{"-sessions", "100", "-duration", "50ms", "-floor-sessions-per-sec", "1e12"}, &out, &errb)
	if code == 0 {
		t.Error("impossible sessions/sec floor did not fail the run")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad mode: exit %d, want 2", code)
	}
	if code := run([]string{"-mode", "SW129"}, &out, &errb); code != 2 {
		t.Errorf("window past the bound: exit %d, want 2", code)
	}
	if code := run([]string{"-chaos", "drop=oops"}, &out, &errb); code != 2 {
		t.Errorf("bad chaos spec: exit %d, want 2", code)
	}
	if code := run([]string{"-sessions", "0", "-chaos", ""}, &out, &errb); code != 1 {
		t.Errorf("zero sessions: exit %d, want 1", code)
	}
	// Flags the selected case does not read, and retired mode switches.
	for _, args := range [][]string{
		{"-case", "bogus"},
		{"-tree", "-overload"},
		{"-case", "tree", "-ceil-p99", "1ns"},
		{"-case", "tree", "-chaos", "drop=0.5"},
		{"-case", "tree", "-capacity", "10"},
		{"-case", "overload", "-floor-sessions-per-sec", "1e12"},
		{"-case", "overload", "-chaos", "drop=0.5"},
		{"-case", "overload", "-handoff-every", "10"},
		{"-case", "fleet", "-max-goroutine-growth", "8"},
		{"-case", "fleet", "-stations", "7"},
		{"-case", "tree", "-placement", "SW4"},
		{"-case", "tree", "-placement", "T1(2)"},
		{"-case", "restart", "-mem-soft-limit", "1"},
		{"-stall-cap", "1"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

// TestRunCaseGates runs the overload and tree rows small through the same
// binary path ci.sh drives, gates included. The tree row echoes its
// placement in the spelling -placement reads.
func TestRunCaseGates(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-case", "overload", "-capacity", "200", "-sessions", "400", "-duration", "100ms",
			"-ceil-p99", "100ms", "-max-goroutine-growth", "8"}, "p99="},
		{[]string{"-case", "tree", "-sessions", "200", "-mode", "ST2", "-placement", "T1:2",
			"-handoff-every", "25", "-duration", "100ms", "-floor-sessions-per-sec", "500"}, "placement T1:2\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 0 {
			t.Fatalf("%q: exit %d, stderr: %s", tc.args, code, errb.String())
		}
		for _, want := range []string{"p99=", tc.want} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%q: output missing %q:\n%s", tc.args, want, out.String())
			}
		}
	}
	// An impossible ceiling must fail the run.
	var out, errb bytes.Buffer
	if code := run([]string{"-case", "overload", "-capacity", "200", "-sessions", "400", "-duration", "100ms",
		"-ceil-p99", "1ns"}, &out, &errb); code != 1 {
		t.Errorf("impossible p99 ceiling: exit %d, want 1", code)
	}
}
