package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	if !strings.Contains(s.String(), "n=2") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	// Map raw uint16 inputs into a bounded range: the property under test is
	// the merge algebra, not float64 overflow behaviour.
	check := func(xsRaw, ysRaw []uint16) bool {
		var all, left, right Summary
		for _, v := range xsRaw {
			x := float64(v)/100 - 300
			all.Add(x)
			left.Add(x)
		}
		for _, v := range ysRaw {
			y := float64(v)/100 - 300
			all.Add(y)
			right.Add(y)
		}
		left.Merge(right)
		if all.N() != left.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return math.Abs(all.Mean()-left.Mean()) < 1e-9 &&
			math.Abs(all.Variance()-left.Variance()) < 1e-6*(1+all.Variance())
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var a, b Summary
	a.Add(4)
	before := a
	a.Merge(b) // empty right side: no-op
	if a != before {
		t.Fatal("merging empty summary changed receiver")
	}
	b.Merge(a) // empty left side: copy
	if b.N() != 1 || b.Mean() != 4 {
		t.Fatalf("merge into empty: %v", b)
	}
}
