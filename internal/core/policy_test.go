package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// opsFromBools converts a random bool slice into a schedule; quick uses it
// to drive the property tests.
func opsFromBools(raw []bool) sched.Schedule {
	s := make(sched.Schedule, len(raw))
	for i, b := range raw {
		if b {
			s[i] = sched.Write
		}
	}
	return s
}

func TestStepAccessors(t *testing.T) {
	alloc := step(sched.Read, false, true, false)
	if !alloc.Allocated() || alloc.Deallocated() {
		t.Fatal("allocation step misclassified")
	}
	dealloc := step(sched.Write, true, false, false)
	if dealloc.Allocated() || !dealloc.Deallocated() {
		t.Fatal("deallocation step misclassified")
	}
	hold := step(sched.Read, true, true, false)
	if hold.Allocated() || hold.Deallocated() {
		t.Fatal("steady step misclassified")
	}
}

func TestST1NeverHoldsCopy(t *testing.T) {
	p := NewST1()
	if p.Name() != "ST1" {
		t.Fatalf("name = %q", p.Name())
	}
	for _, op := range sched.MustParse("rrrwwwrw") {
		st := p.Apply(op)
		if st.HadCopy || st.HasCopy || st.DataSuppressed || p.HasCopy() {
			t.Fatalf("ST1 produced copy state: %+v", st)
		}
	}
	p.Reset()
	if p.HasCopy() {
		t.Fatal("ST1 has copy after reset")
	}
}

func TestST2AlwaysHoldsCopy(t *testing.T) {
	p := NewST2()
	if p.Name() != "ST2" {
		t.Fatalf("name = %q", p.Name())
	}
	for _, op := range sched.MustParse("rrrwwwrw") {
		st := p.Apply(op)
		if !st.HadCopy || !st.HasCopy || st.DataSuppressed || !p.HasCopy() {
			t.Fatalf("ST2 lost copy: %+v", st)
		}
	}
	p.Reset()
	if !p.HasCopy() {
		t.Fatal("ST2 lost copy after reset")
	}
}

func TestRunLength(t *testing.T) {
	steps := Run(NewST1(), sched.MustParse("rwr"))
	if len(steps) != 3 {
		t.Fatalf("len = %d", len(steps))
	}
	if steps[1].Op != sched.Write {
		t.Fatalf("step op = %v", steps[1].Op)
	}
}

// TestSWCopyMatchesMajority is the central SWk invariant: after every
// request, the MC holds a copy exactly when reads form a strict majority
// of the last k requests (with the initial fill supplying history before
// the k-th request).
func TestSWCopyMatchesMajority(t *testing.T) {
	for _, k := range []int{1, 3, 5, 9, 15} {
		k := k
		check := func(raw []bool) bool {
			p := NewSW(k)
			seq := opsFromBools(raw)
			for i, op := range seq {
				st := p.Apply(op)
				reads := 0
				for j := 0; j < k; j++ {
					idx := i - j
					if idx >= 0 && seq[idx] == sched.Read {
						reads++
					}
				}
				if (reads > k-reads) != st.HasCopy {
					return false
				}
				if st.HasCopy != p.HasCopy() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestSWAllocationOnlyOnReads(t *testing.T) {
	// Allocation must always coincide with a read: the copy piggybacks on
	// the read response (section 4).
	for _, k := range []int{1, 3, 7} {
		k := k
		check := func(raw []bool) bool {
			p := NewSW(k)
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
		if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestSW1Suppression(t *testing.T) {
	p := NewSW(1)
	if p.Name() != "SW1" {
		t.Fatalf("name = %q", p.Name())
	}
	// Starts without a copy (initial window is a write).
	st := p.Apply(sched.Write)
	if st.DataSuppressed {
		t.Fatal("write without copy should not be suppressed")
	}
	st = p.Apply(sched.Read)
	if !st.Allocated() {
		t.Fatal("read should allocate under SW1")
	}
	st = p.Apply(sched.Write)
	if !st.DataSuppressed || !st.Deallocated() {
		t.Fatalf("write with copy should be a suppressed deallocation: %+v", st)
	}
}

func TestSWkNoSuppression(t *testing.T) {
	for _, k := range []int{3, 5, 9} {
		p := NewSW(k)
		for _, op := range sched.MustParse("rrrrrwwwwwrrrrr") {
			if st := p.Apply(op); st.DataSuppressed {
				t.Fatalf("SW%d suppressed data: %+v", k, st)
			}
		}
	}
}

func TestSWInitialFill(t *testing.T) {
	p := NewSWInitial(5, sched.Read)
	if !p.HasCopy() {
		t.Fatal("read-filled SW should start with a copy")
	}
	p = NewSWInitial(5, sched.Write)
	if p.HasCopy() {
		t.Fatal("write-filled SW should start without a copy")
	}
}

func TestSWReset(t *testing.T) {
	p := NewSW(3)
	seq := sched.MustParse("rrrwwr")
	first := Run(p, seq)
	p.Reset()
	second := Run(p, seq)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d differs after reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestSWPanicsOnEvenK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSW(4) did not panic")
		}
	}()
	NewSW(4)
}

func TestSWAccessors(t *testing.T) {
	p := NewSW(7)
	if p.K() != 7 || p.Window().Size() != 7 {
		t.Fatalf("K=%d window=%d", p.K(), p.Window().Size())
	}
}

func TestT1PhaseMachine(t *testing.T) {
	p := NewT1(3)
	if p.Name() != "T1:3" || p.M() != 3 {
		t.Fatalf("name=%q m=%d", p.Name(), p.M())
	}
	// Two reads, a write resets the count.
	p.Apply(sched.Read)
	p.Apply(sched.Read)
	p.Apply(sched.Write)
	if p.HasCopy() {
		t.Fatal("copy allocated too early")
	}
	// Three consecutive reads allocate on the third.
	p.Apply(sched.Read)
	p.Apply(sched.Read)
	st := p.Apply(sched.Read)
	if !st.Allocated() || !p.HasCopy() {
		t.Fatalf("third consecutive read should allocate: %+v", st)
	}
	// Reads keep the copy; the first write drops it with a suppressed
	// delete-request.
	if st = p.Apply(sched.Read); st.Deallocated() {
		t.Fatal("read should not deallocate in two-copies phase")
	}
	st = p.Apply(sched.Write)
	if !st.Deallocated() || !st.DataSuppressed {
		t.Fatalf("write should end two-copies phase with suppression: %+v", st)
	}
}

func TestT1CountResetAfterAllocationCycle(t *testing.T) {
	p := NewT1(2)
	p.Apply(sched.Read)
	p.Apply(sched.Read) // allocate
	p.Apply(sched.Write)
	// Needs two fresh consecutive reads again.
	st := p.Apply(sched.Read)
	if st.Allocated() {
		t.Fatal("allocated after a single read post-reset")
	}
	st = p.Apply(sched.Read)
	if !st.Allocated() {
		t.Fatal("second consecutive read should re-allocate")
	}
}

func TestT2PhaseMachine(t *testing.T) {
	p := NewT2(2)
	if p.Name() != "T2:2" || p.M() != 2 {
		t.Fatalf("name=%q m=%d", p.Name(), p.M())
	}
	if !p.HasCopy() {
		t.Fatal("T2 should start with a copy")
	}
	// A write then a read: count resets.
	p.Apply(sched.Write)
	p.Apply(sched.Read)
	if !p.HasCopy() {
		t.Fatal("copy dropped too early")
	}
	// Two consecutive writes deallocate on the second, with the data still
	// propagated (the MC is counting, so no suppression is possible).
	p.Apply(sched.Write)
	st := p.Apply(sched.Write)
	if !st.Deallocated() || st.DataSuppressed {
		t.Fatalf("second consecutive write should deallocate unsuppressed: %+v", st)
	}
	// Writes stay free now; the first read re-allocates.
	st = p.Apply(sched.Write)
	if st.HadCopy || st.HasCopy {
		t.Fatalf("write in one-copy phase should stay copyless: %+v", st)
	}
	st = p.Apply(sched.Read)
	if !st.Allocated() {
		t.Fatalf("first read should re-allocate: %+v", st)
	}
}

func TestTResets(t *testing.T) {
	seq := sched.MustParse("rrwwrrrwwwr")
	t1 := NewT1(2)
	first := Run(t1, seq)
	t1.Reset()
	if second := Run(t1, seq); second[len(second)-1] != first[len(first)-1] {
		t.Fatal("T1 reset did not restore initial state")
	}
	t2 := NewT2(2)
	first = Run(t2, seq)
	t2.Reset()
	if second := Run(t2, seq); second[len(second)-1] != first[len(first)-1] {
		t.Fatal("T2 reset did not restore initial state")
	}
}

// TestResetMatchesFresh runs Reset on every policy a Spec builds, each
// kind of the spelling table at a few parameters: once it has applied a
// schedule and been Reset, it answers the next schedule step for step as
// a fresh policy does.
func TestResetMatchesFresh(t *testing.T) {
	var specs []Spec
	for kind := KindNone + 1; kind < numKinds; kind++ {
		switch f := forms[kind]; {
		case f.k:
			for _, k := range []int{1, 2, 3, 4, 9} {
				specs = append(specs, Spec{Kind: kind, K: k})
			}
		case f.alpha:
			specs = append(specs, Spec{Kind: kind, Alpha: 0.3}, Spec{Kind: kind, Alpha: 1})
		default:
			specs = append(specs, Spec{Kind: kind})
		}
	}
	rng := stats.NewRNG(48)
	draw := func(theta float64) sched.Schedule {
		ops := make(sched.Schedule, 200)
		for i := range ops {
			if rng.Bernoulli(theta) {
				ops[i] = sched.Write
			}
		}
		return ops
	}
	for _, spec := range specs {
		if spec.Validate() != nil {
			continue
		}
		for _, theta := range []float64{0.2, 0.5, 0.8} {
			used, fresh := spec.New(), spec.New()
			Run(used, draw(theta))
			used.Reset()
			next := draw(theta)
			if got, want := Run(used, next), Run(fresh, next); !reflect.DeepEqual(got, want) {
				t.Errorf("%v theta=%v: after Reset the next schedule runs %v, a fresh policy %v", spec, theta, got, want)
			}
		}
	}
}

func TestTPanicsOnBadM(t *testing.T) {
	for _, f := range []func(){func() { NewT1(0) }, func() { NewT2(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor did not panic on bad m")
				}
			}()
			f()
		}()
	}
}

// TestStepConsistency checks, for every policy, that the HadCopy/HasCopy
// chain is consistent across steps and with HasCopy().
func TestStepConsistency(t *testing.T) {
	policies := []Policy{
		NewST1(), NewST2(), NewSW(1), NewSW(3), NewSW(9),
		NewT1(3), NewT2(3),
	}
	for _, p := range policies {
		p := p
		check := func(raw []bool) bool {
			p.Reset()
			prev := p.HasCopy()
			for _, op := range opsFromBools(raw) {
				st := p.Apply(op)
				if st.HadCopy != prev {
					return false
				}
				if st.HasCopy != p.HasCopy() {
					return false
				}
				if st.DataSuppressed && op != sched.Write {
					return false
				}
				prev = st.HasCopy
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestCodeRoundTrip(t *testing.T) {
	for c := Code(0); c < NumCodes; c++ {
		st := c.Step()
		if got := st.Code(); got != c {
			t.Errorf("Code(%d).Step() = %+v, which packs to %d", c, st, got)
		}
		want := Step{Op: sched.Op(c & 1), HadCopy: c>>1&1 == 1, HasCopy: c>>2&1 == 1, DataSuppressed: c>>3&1 == 1}
		if st != want {
			t.Errorf("Code(%d).Step() = %+v, want %+v", c, st, want)
		}
	}
}

// TestApplyBlockMatchesApply holds every block form to its Apply: each
// step read off the copy bits as BlockPolicy says, no bit set past the
// block or a word written past its last, and the same policy state
// afterwards (compared as values, so a window register or a counter left
// different fails). Blocks are shorter than, equal to and longer than the
// window, and applied back to back so each starts from the state the
// previous one left. 100 and 1024+36 are the lengths at which a shift by a
// min()-bounded count came out one step wrong under go1.24.0. The
// thresholds of 128 are the kernel's bound, the largest whose byte lanes
// cannot carry; those of 200 go through Apply.
func TestApplyBlockMatchesApply(t *testing.T) {
	pairs := func() [][2]BlockPolicy {
		return [][2]BlockPolicy{
			{NewST1(), NewST1()}, {NewST2(), NewST2()},
			{NewSW(1), NewSW(1)}, {NewSW(3), NewSW(3)}, {NewSW(9), NewSW(9)},
			{NewSW(63), NewSW(63)}, {NewSW(65), NewSW(65)}, {NewSW(127), NewSW(127)},
			{NewSWInitial(5, sched.Read), NewSWInitial(5, sched.Read)},
			{NewT1(1), NewT1(1)}, {NewT1(4), NewT1(4)}, {NewT2(1), NewT2(1)}, {NewT2(4), NewT2(4)},
			{NewT1(128), NewT1(128)}, {NewT2(128), NewT2(128)},
			{NewT1(200), NewT1(200)}, {NewT2(200), NewT2(200)},
		}
	}
	const spare = 0x5eed5eed5eed5eed
	rng := stats.NewRNG(25)
	for _, theta := range []float64{0, 0.1, 0.5, 0.9, 1} {
		for _, pair := range pairs() {
			block, ref := pair[0], pair[1]
			for _, n := range []int{0, 1, 2, 3, 8, 9, 10, 62, 64, 66, 100, 126, 127, 128, 129, 1000, 1024 + 36} {
				ops := make(sched.Schedule, n)
				for i := range ops {
					if rng.Bernoulli(theta) {
						ops[i] = sched.Write
					}
				}
				words := (n + 63) / 64
				has := make([]uint64, words+1)
				for w := range has {
					has[w] = spare
				}
				had, sup := block.HasCopy(), block.SuppressesWrites()
				block.ApplyBlock(ops, has[:words])
				for i, op := range ops {
					bit := has[i/64]>>(i%64)&1 == 1
					got := Step{Op: op, HadCopy: had, HasCopy: bit, DataSuppressed: sup && op == sched.Write && had}
					if want := ref.Apply(op); got != want {
						t.Fatalf("%s theta=%v block of %d: step %d is %+v, Apply gives %+v", ref.Name(), theta, n, i, got, want)
					}
					had = bit
				}
				if n%64 != 0 && has[n/64]>>(n%64) != 0 {
					t.Fatalf("%s theta=%v block of %d: copy bits set past the block: %#x", ref.Name(), theta, n, has[n/64])
				}
				if has[words] != spare {
					t.Fatalf("%s theta=%v block of %d: word %d written", ref.Name(), theta, n, words)
				}
				if !reflect.DeepEqual(block, ref) {
					t.Fatalf("%s theta=%v after a block of %d: state %+v, Apply leaves %+v", ref.Name(), theta, n, block, ref)
				}
			}
		}
	}
}
