package core

import (
	"testing"
	"testing/quick"

	"mobirep/internal/sched"
)

func TestCacheInvalidateBehaviour(t *testing.T) {
	p := NewCacheInvalidate()
	if p.Name() != "CacheInv" || p.HasCopy() {
		t.Fatal("bad initial state")
	}
	st := p.Apply(sched.Read)
	if !st.Allocated() || !p.HasCopy() {
		t.Fatal("read should cache")
	}
	st = p.Apply(sched.Write)
	if !st.Deallocated() || !st.DataSuppressed {
		t.Fatalf("write should invalidate without data: %+v", st)
	}
	st = p.Apply(sched.Write)
	if st.HadCopy || st.DataSuppressed {
		t.Fatalf("write without copy should be free and unsuppressed: %+v", st)
	}
	p.Reset()
	if p.HasCopy() {
		t.Fatal("reset should drop the copy")
	}
}

// TestCacheInvalidateStepEqualsSW1 proves the identity step by step, not
// just in expectation: on any schedule, CacheInvalidate and SW1 produce
// identical step traces.
func TestCacheInvalidateStepEqualsSW1(t *testing.T) {
	check := func(raw []bool) bool {
		ci, sw := NewCacheInvalidate(), NewSW(1)
		for _, op := range opsFromBools(raw) {
			a, b := ci.Apply(op), sw.Apply(op)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewEWMA(0) },
		func() { NewEWMA(1.5) },
		func() { NewEWMABand(0.5, -0.1, 0.5) },
		func() { NewEWMABand(0.5, 0.6, 0.4) },
		func() { NewEWMABand(0.5, 0.4, 1.2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEWMANames(t *testing.T) {
	if NewEWMA(0.25).Name() != "EWMA:0.25" {
		t.Fatalf("name = %q", NewEWMA(0.25).Name())
	}
	if NewEWMABand(0.1, 0.4, 0.6).Name() != "EWMA(0.10,0.40-0.60)" {
		t.Fatalf("name = %q", NewEWMABand(0.1, 0.4, 0.6).Name())
	}
}

func TestEWMAEstimateTracksWriteFraction(t *testing.T) {
	p := NewEWMA(0.1)
	if p.Estimate() != 1 {
		t.Fatalf("initial estimate = %v", p.Estimate())
	}
	for i := 0; i < 200; i++ {
		p.Apply(sched.Read)
	}
	if p.Estimate() > 0.01 {
		t.Fatalf("estimate after all reads = %v", p.Estimate())
	}
	if !p.HasCopy() {
		t.Fatal("read-heavy stream should allocate")
	}
	for i := 0; i < 200; i++ {
		p.Apply(sched.Write)
	}
	if p.Estimate() < 0.99 {
		t.Fatalf("estimate after all writes = %v", p.Estimate())
	}
	if p.HasCopy() {
		t.Fatal("write-heavy stream should deallocate")
	}
}

func TestEWMATransitionsPiggyback(t *testing.T) {
	check := func(raw []bool) bool {
		p := NewEWMA(0.3)
		for _, op := range opsFromBools(raw) {
			st := p.Apply(op)
			if st.Allocated() && op != sched.Read {
				return false
			}
			if st.Deallocated() && op != sched.Write {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAHysteresisBand(t *testing.T) {
	p := NewEWMABand(0.5, 0.2, 0.8)
	// Drive estimate low: allocate.
	for i := 0; i < 20; i++ {
		p.Apply(sched.Read)
	}
	if !p.HasCopy() {
		t.Fatal("should hold a copy after reads")
	}
	// One write pushes the estimate to ~0.5 — inside the band: keep.
	p.Apply(sched.Write)
	if !p.HasCopy() {
		t.Fatal("single write inside the band should not deallocate")
	}
	// More writes push above 0.8: drop.
	p.Apply(sched.Write)
	p.Apply(sched.Write)
	if p.HasCopy() {
		t.Fatal("write-majority estimate above High should deallocate")
	}
}

func TestEWMAReset(t *testing.T) {
	p := NewEWMA(0.5)
	seq := sched.MustParse("rrrrwwrr")
	first := Run(p, seq)
	p.Reset()
	second := Run(p, seq)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d differs after reset", i)
		}
	}
}

func TestEvenSWTieHolding(t *testing.T) {
	p := NewEvenSW(2)
	if p.Name() != "SWe2" {
		t.Fatalf("name = %q", p.Name())
	}
	// Window starts [w w], no copy. One read: [w r] tie -> keep (no copy).
	st := p.Apply(sched.Read)
	if st.HasCopy {
		t.Fatal("tie should hold the previous allocation")
	}
	// Second read: [r r] majority -> allocate.
	st = p.Apply(sched.Read)
	if !st.Allocated() {
		t.Fatal("read majority should allocate")
	}
	// One write: [r w] tie -> keep the copy.
	st = p.Apply(sched.Write)
	if st.Deallocated() {
		t.Fatal("tie should hold the copy")
	}
	// Second write: [w w] -> deallocate.
	st = p.Apply(sched.Write)
	if !st.Deallocated() {
		t.Fatal("write majority should deallocate")
	}
	p.Reset()
	if p.HasCopy() {
		t.Fatal("reset state wrong")
	}
}

func TestEvenSWPanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEvenSW(3)
}

// TestCloneIndependence: a clone must not share mutable state with its
// original.
func TestCloneIndependence(t *testing.T) {
	policies := []Enumerable{
		NewST1(), NewST2(), NewSW(5), NewT1(3), NewT2(3),
		NewCacheInvalidate(), NewEvenSW(4),
	}
	seq := sched.MustParse("rrwrw")
	for _, p := range policies {
		for _, op := range seq {
			p.Apply(op)
		}
		cp := p.Clone()
		if cp.StateKey() != p.StateKey() {
			t.Fatalf("%s: clone key %q != original %q", p.Name(), cp.StateKey(), p.StateKey())
		}
		// Diverge the clone; the original must be unaffected.
		before := p.StateKey()
		cp.Apply(sched.Write)
		cp.Apply(sched.Write)
		cp.Apply(sched.Write)
		if p.StateKey() != before {
			t.Fatalf("%s: mutating the clone changed the original", p.Name())
		}
	}
}

// TestStateKeyDeterminesBehaviour: equal keys must imply equal futures.
func TestStateKeyDeterminesBehaviour(t *testing.T) {
	mk := func() []Enumerable {
		return []Enumerable{NewSW(3), NewT1(4), NewT2(4), NewEvenSW(4), NewCacheInvalidate()}
	}
	check := func(rawA, rawB []bool) bool {
		as, bs := mk(), mk()
		for i := range as {
			for _, op := range opsFromBools(rawA) {
				as[i].Apply(op)
			}
			for _, op := range opsFromBools(rawB) {
				bs[i].Apply(op)
			}
			if as[i].StateKey() != bs[i].StateKey() {
				continue // different states: nothing to check
			}
			// Same key: the next steps must be identical.
			for _, op := range []sched.Op{sched.Read, sched.Write} {
				ca, cb := as[i].Clone(), bs[i].Clone()
				if ca.Apply(op) != cb.Apply(op) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
