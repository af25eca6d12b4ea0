package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// Enumerable is implemented by policies with a finite, serializable state
// space. The generic Markov oracle in internal/analytic explores an
// Enumerable's reachable states to compute exact steady-state and
// transient expected costs without any closed form — the strongest
// validation layer for the paper's formulas, and the only exact method
// for variants the paper does not analyze (hysteresis bands, T-family in
// the message model, even-window tie rules).
//
// EWMA is deliberately not Enumerable: its estimate takes unboundedly
// many values, so it is analyzed by simulation only.
type Enumerable interface {
	Policy
	// StateKey serializes the current state; two policies with equal keys
	// behave identically on all futures.
	StateKey() string
	// Clone returns an independent copy in the same state.
	Clone() Enumerable
}

// StateKey implements Enumerable; ST1 has a single state.
func (*ST1) StateKey() string { return "st1" }

// Clone implements Enumerable.
func (*ST1) Clone() Enumerable { return NewST1() }

// StateKey implements Enumerable; ST2 has a single state.
func (*ST2) StateKey() string { return "st2" }

// Clone implements Enumerable.
func (*ST2) Clone() Enumerable { return NewST2() }

// StateKey implements Enumerable: the window contents determine everything
// (the copy is a function of the majority).
func (s *SW) StateKey() string { return s.window.String() }

// Clone implements Enumerable.
func (s *SW) Clone() Enumerable {
	cp := *s
	return &cp
}

// StateKey implements Enumerable: phase plus the consecutive-read count.
func (t *T1) StateKey() string {
	if t.hasCopy {
		return "t1:copy"
	}
	return fmt.Sprintf("t1:%d", t.reads)
}

// Clone implements Enumerable.
func (t *T1) Clone() Enumerable {
	cp := NewT1(t.m)
	cp.reads = t.reads
	cp.hasCopy = t.hasCopy
	return cp
}

// StateKey implements Enumerable: phase plus the consecutive-write count.
func (t *T2) StateKey() string {
	if !t.hasCopy {
		return "t2:nocopy"
	}
	return fmt.Sprintf("t2:%d", t.writes)
}

// Clone implements Enumerable.
func (t *T2) Clone() Enumerable {
	cp := NewT2(t.m)
	cp.writes = t.writes
	cp.hasCopy = t.hasCopy
	return cp
}

// StateKey implements Enumerable; the cache baseline has two states.
func (c *CacheInvalidate) StateKey() string {
	if c.hasCopy {
		return "ci:copy"
	}
	return "ci:nocopy"
}

// Clone implements Enumerable.
func (c *CacheInvalidate) Clone() Enumerable {
	return &CacheInvalidate{hasCopy: c.hasCopy}
}

// EvenSW is a sliding window with an even size, which the paper excludes
// ("for ease of analysis we assume that k is odd"). Ties are possible and
// must be broken by a rule; this variant keeps the current allocation on a
// tie (hysteresis-flavored). It exists for the window-parity ablation:
// the Markov oracle quantifies what the paper's odd-k restriction costs
// or saves.
type EvenSW struct {
	window  Window
	hasCopy bool
}

// NewEvenSW returns a tie-holding sliding window with even size k.
func NewEvenSW(k int) *EvenSW {
	if k <= 0 || k%2 == 1 {
		panic(fmt.Sprintf("core: EvenSW size %d must be even and positive", k))
	}
	return &EvenSW{window: NewWindow(k, sched.Write)}
}

// Name implements Policy.
func (s *EvenSW) Name() string { return Spec{Kind: KindSWe, K: s.window.Size()}.String() }

// HasCopy implements Policy.
func (s *EvenSW) HasCopy() bool { return s.hasCopy }

// Apply implements Policy: strict majorities decide, ties keep the
// current allocation.
func (s *EvenSW) Apply(op sched.Op) Step {
	had := s.hasCopy
	s.window.Push(op)
	// A copy can only be acquired on a read (the data piggybacks on the
	// response) and dropped on a write, exactly as in the odd-k family.
	if op == sched.Read && s.window.Reads() > s.window.Writes() {
		s.hasCopy = true
	}
	if op == sched.Write && s.window.Writes() > s.window.Reads() {
		s.hasCopy = false
	}
	return step(op, had, s.hasCopy, false)
}

// Reset implements Policy.
func (s *EvenSW) Reset() {
	s.window.Fill(sched.Write)
	s.hasCopy = false
}

// StateKey implements Enumerable: window bits plus the allocation (which
// a tie makes path-dependent).
func (s *EvenSW) StateKey() string {
	if s.hasCopy {
		return "c:" + s.window.String()
	}
	return "n:" + s.window.String()
}

// Clone implements Enumerable.
func (s *EvenSW) Clone() Enumerable {
	cp := *s
	return &cp
}
