package core

import (
	"strings"
	"testing"
)

// TestParsePolicy pins the policy names every tool accepts: each parses to
// the policy of that name, and the retired spellings and malformed or
// out-of-range names are refused.
func TestParsePolicy(t *testing.T) {
	for _, in := range []string{"ST1", "ST2", "SW1", "SW15", "T1:3", "T2:7",
		"CacheInv", "EWMA:0.25", "SWe4"} {
		spec, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := spec.New().Name(); got != in {
			t.Fatalf("%q parsed to %q", in, got)
		}
	}
	for _, bad := range []string{"", "none", "SW4", "SW0", "SW-3", "T1:0", "XX", "SW5x", "sw5",
		"SWe3", "SWe0", "EWMA:0", "EWMA:2", "cacheinv",
		"T1(3)", "T13", "T2(7)", "T27", "EWMA(0.25)", "EWMA:0.250", "SW05", "T1:+3"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}

// TestParsePolicyWindowBound accepts every size up to MaxWindow under its
// parity rule; the rejection table below covers the far side.
func TestParsePolicyWindowBound(t *testing.T) {
	for _, name := range []string{"SW1", "SW63", "SWe64", "SW65", "SW127", "SWe128"} {
		spec, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := spec.New().Name(); got != name {
			t.Fatalf("%s built %s", name, got)
		}
	}
}

// TestParsePolicyRejectionMessages pins each rejection family to its
// diagnostic, so the CLI's error text names the actual constraint rather
// than falling through to "unknown policy".
func TestParsePolicyRejectionMessages(t *testing.T) {
	cases := map[string]string{
		// Even (and non-positive) sliding windows.
		"SW2":   "must be odd and positive",
		"SW100": "must be odd and positive",
		"SW0":   "must be odd and positive",
		// Past the one window bound, whatever the parity rule.
		"SW129":  "outside [1, 128]",
		"SWe130": "outside [1, 128]",
		// The even-window ablation is the dual: it rejects odd sizes.
		"SWe7": "must be even and positive",
		"SWe0": "must be even and positive",
		// Trailing garbage must not silently truncate to a valid name.
		"SW5x":      "unknown policy",
		"SW5 ":      "unknown policy",
		"SWe4x":     "unknown policy",
		"T1:3x":     "unknown policy",
		"EWMA:0.5x": "unknown policy",
		// EWMA alpha must lie in (0, 1].
		"EWMA:0":    "must be in (0,1]",
		"EWMA:-0.5": "must be in (0,1]",
		"EWMA:1.5":  "must be in (0,1]",
		// Thresholds must be positive.
		"T1:0":  "must be positive",
		"T1:-2": "must be positive",
		"T2:0":  "must be positive",
	}
	for in, want := range cases {
		_, err := ParsePolicy(in)
		if err == nil {
			t.Fatalf("%q: expected error containing %q", in, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: error %q does not mention %q", in, err, want)
		}
	}
	// Boundary acceptance: alpha exactly 1 is legal.
	spec, err := ParsePolicy("EWMA:1")
	if err != nil {
		t.Fatalf("EWMA:1: %v", err)
	}
	if got := spec.New().Name(); got != "EWMA:1" {
		t.Fatalf("EWMA:1 parsed to %q", got)
	}
}

// FuzzParseSpec checks ParseSpec against String: whatever ParseSpec
// accepts prints back as itself, validates and (but for none) builds a
// policy of that name. TestSpecRoundTrip checks the other direction.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"none", "ST1", "ST2", "SW1", "SW9", "SW127", "SWe4",
		"SWe128", "T1:4", "T2:15", "CacheInv", "EWMA:0.3", "EWMA:1", "EWMA:1e-05",
		"SW4", "SW129", "T1(4)", "T14", "EWMA(0.3)", "EWMA:NaN", "EWMA:+Inf", "SW05", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if spec.String() != s {
			t.Fatalf("ParseSpec(%q) = %v, which prints as %q", s, spec, spec.String())
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", s, err)
		}
		p := spec.New()
		if (p == nil) != (spec.Kind == KindNone) {
			t.Fatalf("%q: New() = %v", s, p)
		}
		if p != nil && p.Name() != s {
			t.Fatalf("%q builds a policy named %q", s, p.Name())
		}
	})
}

// TestSpecRoundTrip walks every kind over a range of its parameter: a
// spec that validates re-parses to itself and builds the policy of its
// name, and one that does not is refused by ParseSpec.
func TestSpecRoundTrip(t *testing.T) {
	var specs []Spec
	for kind := KindNone; kind <= numKinds; kind++ {
		switch {
		case kind == numKinds || forms[kind].k:
			for k := -2; k <= MaxWindow+2; k++ {
				specs = append(specs, Spec{Kind: kind, K: k})
			}
		case forms[kind].alpha:
			for _, a := range []float64{-1, 0, 1e-9, 0.05, 0.3, 0.5, 1, 1.5} {
				specs = append(specs, Spec{Kind: kind, Alpha: a})
			}
		default:
			specs = append(specs, Spec{Kind: kind})
		}
	}
	for _, spec := range specs {
		got, err := ParseSpec(spec.String())
		if spec.Validate() != nil {
			if err == nil {
				t.Fatalf("%+v fails Validate but %q parses", spec, spec.String())
			}
			continue
		}
		if err != nil || got != spec {
			t.Fatalf("ParseSpec(%q) = %+v, %v; want %+v", spec.String(), got, err, spec)
		}
		if p := spec.New(); p != nil && p.Name() != spec.String() {
			t.Fatalf("%+v builds %q", spec, p.Name())
		}
	}
}
