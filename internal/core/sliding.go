package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// SW is the sliding-window allocation method SWk of section 4: after every
// relevant request the window of the last k requests is updated, and the
// mobile computer holds a copy exactly when reads are the strict majority
// of the window.
//
// For k == 1 the constructor applies the paper's optimization: a write
// that finds a copy at the MC will certainly deallocate it (the window
// consists of just that write), so the SC sends a short delete-request
// instead of propagating the data. NewSW therefore returns the algorithm
// the paper calls SW1 when k is 1.
type SW struct {
	window    Window
	hasCopy   bool
	initialOp sched.Op
}

// NewSW returns the sliding-window policy with window size k. The paper
// assumes k is odd so that read/write majorities are always strict; the
// constructor enforces it. The initial window is all writes (no copy at
// the MC), matching a freshly connected mobile computer.
func NewSW(k int) *SW {
	return NewSWInitial(k, sched.Write)
}

// NewSWInitial returns SWk with the window pre-filled with fill, so the
// MC starts with a copy when fill is a read. Experiments use this to show
// that the initial window only affects a vanishing transient.
func NewSWInitial(k int, fill sched.Op) *SW {
	if k <= 0 || k%2 == 0 {
		panic(fmt.Sprintf("core: SW window size %d must be odd and positive", k))
	}
	s := &SW{window: NewWindow(k, fill), initialOp: fill}
	s.hasCopy = s.window.ReadMajority()
	return s
}

// Name implements Policy; it returns "SW1", "SW3", ...
func (s *SW) Name() string { return Spec{Kind: KindSW, K: s.K()}.String() }

// K returns the window size.
func (s *SW) K() int { return s.window.Size() }

// HasCopy implements Policy.
func (s *SW) HasCopy() bool { return s.hasCopy }

// Window returns a copy of the current window, for protocol handoff and
// for the white-box invariant tests.
func (s *SW) Window() Window { return s.window }

// Apply implements Policy. It slides the window and re-derives the
// allocation from the new majority, exactly as section 4 prescribes:
//
//   - read majority and no copy: allocate (the last request was
//     necessarily a read, and the copy rides its response);
//   - write majority and a copy: deallocate;
//   - otherwise: keep waiting.
func (s *SW) Apply(op sched.Op) Step {
	had := s.hasCopy
	s.window.Push(op)
	s.hasCopy = s.window.ReadMajority()

	// SW1 optimization: a write that finds a copy is sent as a bare
	// delete-request, never as a data propagation.
	suppressed := s.window.Size() == 1 && op == sched.Write && had
	return step(op, had, s.hasCopy, suppressed)
}

// ApplyBlock implements BlockPolicy. The window is the kernel's history as
// it stands, and the register is rebuilt once, from the block's newest k
// requests.
func (s *SW) ApplyBlock(ops sched.Schedule, has []uint64) {
	s.window = s.window.slide(ops, (s.K()+1)/2, has)
	s.hasCopy = s.window.ReadMajority()
}

// SuppressesWrites implements BlockPolicy: SW1 sends a bare delete-request
// for every write that finds a copy.
func (s *SW) SuppressesWrites() bool { return s.K() == 1 }

// Reset implements Policy.
func (s *SW) Reset() {
	s.window.Fill(s.initialOp)
	s.hasCopy = s.window.ReadMajority()
}
