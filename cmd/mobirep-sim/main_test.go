package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mobirep/internal/core"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestExpRun(t *testing.T) {
	code, out, errOut := runCapture(t,
		"-policy", "SW5", "-theta", "0.3", "-model", "connection",
		"-ops", "5000", "-trials", "2", "-seed", "9")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "policy=SW5") || !strings.Contains(out, "measure=EXP") {
		t.Fatalf("output: %q", out)
	}
	if !strings.Contains(out, "theory:") {
		t.Fatalf("missing theory line: %q", out)
	}
}

func TestAvgRun(t *testing.T) {
	code, out, _ := runCapture(t,
		"-policy", "SW1", "-model", "message", "-omega", "0.5", "-avg",
		"-periods", "20", "-ops-per-period", "100", "-trials", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "measure=AVG") || !strings.Contains(out, "theory:   0.333333") {
		t.Fatalf("output: %q", out)
	}
}

func TestBadInputs(t *testing.T) {
	for _, bad := range []string{"NOPE", "T1(2)", "none"} {
		if code, _, errOut := runCapture(t, "-policy", bad); code != 2 || errOut == "" {
			t.Fatalf("bad policy %q: code=%d", bad, code)
		}
	}
	if code, _, _ := runCapture(t, "-model", "carrier-pigeon"); code != 2 {
		t.Fatal("bad model accepted")
	}
	if code, _, _ := runCapture(t, "-bogusflag"); code != 2 {
		t.Fatal("bad flag accepted")
	}
}

func TestTheoryExp(t *testing.T) {
	cases := []struct {
		policy, model string
		theta, omega  float64
		want          float64
		ok            bool
	}{
		{"ST1", "connection", 0.3, 0, 0.7, true},
		{"ST1", "message", 0.3, 0.5, 1.05, true},
		{"ST2", "connection", 0.3, 0, 0.3, true},
		{"ST2", "message", 0.3, 0.5, 0.3, true},
		{"SW1", "message", 0.5, 0.5, 0.5, true},
		{"SW1", "connection", 0.5, 0, 0.5, true},
		{"T1:3", "connection", 0.5, 0, 0.5, true},
		{"T1:3", "message", 0.5, 0.5, 0, false}, // no closed form
		{"T2:3", "connection", 0.5, 0, 0.5, true},
		{"T2:3", "message", 0.5, 0.5, 0, false},
		{"EWMA:0.5", "connection", 0.5, 0, 0, false},
	}
	for _, c := range cases {
		got, ok := theoryExp(mustSpec(t, c.policy), c.model, c.theta, c.omega)
		if ok != c.ok {
			t.Fatalf("%s/%s: ok=%v want %v", c.policy, c.model, ok, c.ok)
		}
		if ok && math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("%s/%s: got %v want %v", c.policy, c.model, got, c.want)
		}
	}
}

func mustSpec(t *testing.T, name string) core.Spec {
	t.Helper()
	spec, err := core.ParsePolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTheoryAvg(t *testing.T) {
	if got, ok := theoryAvg(mustSpec(t, "ST1"), "message", 0.5); !ok || got != 0.75 {
		t.Fatalf("ST1 msg avg: %v %v", got, ok)
	}
	if got, ok := theoryAvg(mustSpec(t, "ST1"), "connection", 0); !ok || got != 0.5 {
		t.Fatalf("ST1 conn avg: %v %v", got, ok)
	}
	if got, ok := theoryAvg(mustSpec(t, "ST2"), "message", 0.5); !ok || got != 0.5 {
		t.Fatalf("ST2 msg avg: %v %v", got, ok)
	}
	if got, ok := theoryAvg(mustSpec(t, "ST2"), "connection", 0); !ok || got != 0.5 {
		t.Fatalf("ST2 conn avg: %v %v", got, ok)
	}
	if got, ok := theoryAvg(mustSpec(t, "SW9"), "connection", 0); !ok || math.Abs(got-(0.25+1.0/44)) > 1e-12 {
		t.Fatalf("SW9 conn avg: %v %v", got, ok)
	}
	if got, ok := theoryAvg(mustSpec(t, "SW9"), "message", 0.5); !ok || got <= 0.25 {
		t.Fatalf("SW9 msg avg: %v %v", got, ok)
	}
	if _, ok := theoryAvg(mustSpec(t, "T1:3"), "connection", 0); ok {
		t.Fatal("T1 AVG should have no exported closed form")
	}
}
