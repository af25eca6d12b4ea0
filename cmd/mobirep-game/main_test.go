package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRatioConnection(t *testing.T) {
	code, out, _ := runCapture(t, "-policy", "SW3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "exactly 4.0000") {
		t.Fatalf("output: %q", out)
	}
}

func TestRatioMessage(t *testing.T) {
	code, out, _ := runCapture(t, "-policy", "SW1", "-model", "message", "-omega", "0.5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "exactly 2.0000") {
		t.Fatalf("output: %q", out)
	}
}

func TestNotCompetitive(t *testing.T) {
	code, out, _ := runCapture(t, "-policy", "ST1", "-limit", "32")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "NOT competitive") {
		t.Fatalf("output: %q", out)
	}
}

func TestVerifyBound(t *testing.T) {
	code, out, _ := runCapture(t, "-policy", "T1:4", "-verify", "5")
	if code != 0 || !strings.Contains(out, "true") {
		t.Fatalf("exit %d out %q", code, out)
	}
	code, out, _ = runCapture(t, "-policy", "T1:4", "-verify", "4.5")
	if code != 3 || !strings.Contains(out, "false") {
		t.Fatalf("failed bound: exit %d out %q", code, out)
	}
}

func TestWitness(t *testing.T) {
	code, out, _ := runCapture(t, "-policy", "SW3", "-witness")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "witness cycle") || !strings.Contains(out, "force ratio") {
		t.Fatalf("output: %q", out)
	}
	// The check line should report something near 4.
	if !strings.Contains(out, "force ratio 4.0") && !strings.Contains(out, "force ratio 3.9") {
		t.Fatalf("witness ratio line: %q", out)
	}
}

func TestBadInputs(t *testing.T) {
	if code, _, _ := runCapture(t, "-policy", "NOPE"); code != 2 {
		t.Fatal("bad policy accepted")
	}
	if code, _, errOut := runCapture(t, "-policy", "EWMA:0.5"); code != 2 ||
		!strings.Contains(errOut, "not finite-state") {
		t.Fatal("EWMA should be rejected as non-enumerable")
	}
	if code, _, _ := runCapture(t, "-model", "pigeon"); code != 2 {
		t.Fatal("bad model accepted")
	}
	if code, _, _ := runCapture(t, "-badflag"); code != 2 {
		t.Fatal("bad flag accepted")
	}
}
