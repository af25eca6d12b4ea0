package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// T1 is the T1m algorithm of section 7.1: a competitive modification of
// the static one-copy method. It uses the one-copy scheme until m
// consecutive reads occur, then switches to the two-copies scheme until
// the next write, then reverts. The paper shows it is (m+1)-competitive
// with expected cost (1-theta) + (1-theta)^m (2*theta - 1) in the
// connection model — only slightly above ST1's.
//
// In the one-copy phase the SC observes every relevant request (remote
// reads and its own writes), so it can count consecutive reads; the copy
// rides the response of the m-th one. Any write ends the two-copies
// phase, and since the write originates at the SC, the SC already knows
// the copy is being dropped and sends a bare delete-request
// (DataSuppressed), as in SW1.
type T1 struct {
	m       int
	reads   int // consecutive reads observed while in the one-copy phase
	hasCopy bool
}

// NewT1 returns T1m. m must be positive.
func NewT1(m int) *T1 {
	if m <= 0 {
		panic(fmt.Sprintf("core: T1 threshold %d must be positive", m))
	}
	return &T1{m: m}
}

// Name implements Policy.
func (t *T1) Name() string { return Spec{Kind: KindT1, K: t.m}.String() }

// M returns the consecutive-read threshold.
func (t *T1) M() int { return t.m }

// HasCopy implements Policy.
func (t *T1) HasCopy() bool { return t.hasCopy }

// Apply implements Policy.
func (t *T1) Apply(op sched.Op) Step {
	had := t.hasCopy
	if t.hasCopy {
		if op == sched.Write {
			// Any write ends the two-copies phase.
			t.hasCopy = false
			t.reads = 0
			return step(op, had, false, true)
		}
		return step(op, had, true, false)
	}
	if op == sched.Read {
		t.reads++
		if t.reads == t.m {
			t.hasCopy = true
			t.reads = 0
		}
	} else {
		t.reads = 0
	}
	return step(op, had, t.hasCopy, false)
}

// ApplyBlock implements BlockPolicy. T1m holds a copy exactly while the
// last m requests were reads, so the kernel slides a window of m requests
// with need 1. Apply's state maps to the history that rule needs — the
// reads counted since the last write, all m reads while the copy is held,
// and writes before them — and back from the newest m requests. A
// threshold past MaxWindow goes through Apply.
func (t *T1) ApplyBlock(ops sched.Schedule, has []uint64) {
	if t.m > MaxWindow {
		applyEach(t, ops, has)
		return
	}
	run := t.reads
	if t.hasCopy {
		run = t.m
	}
	w := tailWindow(t.m, run, sched.Read).slide(ops, 1, has)
	t.hasCopy = w.writes == 0
	t.reads = 0
	if !t.hasCopy {
		t.reads = w.newestRun(sched.Read)
	}
}

// SuppressesWrites implements BlockPolicy: the write that ends the
// two-copies phase is a bare delete-request.
func (t *T1) SuppressesWrites() bool { return true }

// Reset implements Policy.
func (t *T1) Reset() {
	t.reads = 0
	t.hasCopy = false
}

// T2 is the symmetric T2m algorithm sketched in section 7.1: it uses the
// two-copies scheme until m consecutive writes occur, then switches to the
// one-copy scheme until the next read, then reverts. By the symmetry
// argument of the paper it is (m+1)-competitive with expected cost
// theta + theta^m (1 - 2*theta) in the connection model.
//
// While the MC holds a copy its reads are local, so only the MC can count
// "consecutive writes" correctly; the m-th consecutive write is therefore
// propagated normally and followed by the MC's deallocation request
// (DataSuppressed is false). The copy is re-allocated on the first read of
// the one-copy phase, riding that read's response.
type T2 struct {
	m       int
	writes  int // consecutive writes observed while in the two-copies phase
	hasCopy bool
}

// NewT2 returns T2m. m must be positive.
func NewT2(m int) *T2 {
	if m <= 0 {
		panic(fmt.Sprintf("core: T2 threshold %d must be positive", m))
	}
	return &T2{m: m, hasCopy: true}
}

// Name implements Policy.
func (t *T2) Name() string { return Spec{Kind: KindT2, K: t.m}.String() }

// M returns the consecutive-write threshold.
func (t *T2) M() int { return t.m }

// HasCopy implements Policy.
func (t *T2) HasCopy() bool { return t.hasCopy }

// Apply implements Policy.
func (t *T2) Apply(op sched.Op) Step {
	had := t.hasCopy
	if t.hasCopy {
		if op == sched.Write {
			t.writes++
			if t.writes == t.m {
				t.hasCopy = false
				t.writes = 0
			}
		} else {
			t.writes = 0
		}
		return step(op, had, t.hasCopy, false)
	}
	if op == sched.Read {
		// First read of the one-copy phase re-allocates; the copy rides
		// the read response.
		t.hasCopy = true
	}
	return step(op, had, t.hasCopy, false)
}

// ApplyBlock implements BlockPolicy. It mirrors T1's: T2m holds a copy
// exactly while not all of the last m requests were writes, a window of m
// with need m, and its history is the writes counted since the last read,
// all m writes while there is no copy, and reads before them.
func (t *T2) ApplyBlock(ops sched.Schedule, has []uint64) {
	if t.m > MaxWindow {
		applyEach(t, ops, has)
		return
	}
	run := t.writes
	if !t.hasCopy {
		run = t.m
	}
	w := tailWindow(t.m, run, sched.Write).slide(ops, t.m, has)
	t.hasCopy = int(w.writes) < t.m
	t.writes = 0
	if t.hasCopy {
		t.writes = w.newestRun(sched.Write)
	}
}

// SuppressesWrites implements BlockPolicy: T2m propagates every write.
func (t *T2) SuppressesWrites() bool { return false }

// Reset implements Policy.
func (t *T2) Reset() {
	t.writes = 0
	t.hasCopy = true
}
