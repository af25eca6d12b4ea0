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
func (t *T1) Name() string { return fmt.Sprintf("T1(%d)", t.m) }

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

// ApplyBlock is Apply on every request of ops in order, with step i
// written to out[i] as its Code; out must be at least as long as ops. It
// leaves the policy where the Apply calls would. Apply's two fields are
// one counter here — the consecutive reads seen, pinned at m while the
// copy is held, cleared by any write — and its case analysis is selects,
// because a request's kind is a coin flip that a branch mispredicts.
func (t *T1) ApplyBlock(ops sched.Schedule, out []Code) {
	m, run, had := uint64(t.m), uint64(t.reads), uint64(0)
	if t.hasCopy {
		run, had = m, 1
	}
	out = out[:len(ops)]
	for i, op := range ops {
		w := uint64(op & 1)
		run = min(run+1, m) & (w - 1)
		var has uint64
		if run == m {
			has = 1
		}
		// The write that ends the two-copies phase is a bare delete-request.
		out[i] = Code(w | had<<1 | has<<2 | (had&w)<<3)
		had = has
	}
	t.hasCopy = had != 0
	t.reads = int(run &^ -had)
}

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
func (t *T2) Name() string { return fmt.Sprintf("T2(%d)", t.m) }

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

// ApplyBlock is Apply on every request of ops in order, with step i
// written to out[i] as its Code; out must be at least as long as ops. It
// leaves the policy where the Apply calls would. It mirrors T1's: one
// counter of consecutive writes, pinned at m while there is no copy,
// cleared by any read.
func (t *T2) ApplyBlock(ops sched.Schedule, out []Code) {
	m, run, had := uint64(t.m), uint64(t.writes), uint64(1)
	if !t.hasCopy {
		run, had = m, 0
	}
	out = out[:len(ops)]
	for i, op := range ops {
		w := uint64(op & 1)
		run = min(run+1, m) & -w
		var has uint64
		if run != m {
			has = 1
		}
		out[i] = Code(w | had<<1 | has<<2)
		had = has
	}
	t.hasCopy = had != 0
	t.writes = int(run & -had)
}

// Reset implements Policy.
func (t *T2) Reset() {
	t.writes = 0
	t.hasCopy = true
}
