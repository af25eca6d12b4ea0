// Package core implements the paper's data allocation algorithms as pure,
// deterministic state machines: the static methods ST1 and ST2, the
// sliding-window family SWk (with the paper's SW1 delete-request
// optimization), and the section-7.1 competitive modifications T1m and
// T2m.
//
// A Policy decides, online, whether the mobile computer (MC) holds a copy
// of the data item. It is deliberately free of any notion of cost or
// transport: the cost models in internal/cost price each step, and
// internal/replica turns the same decisions into real protocol messages.
// Keeping the three layers separate lets the simulator, the analytic
// cross-checks, and the distributed protocol share one implementation of
// the decision logic.
package core

import "mobirep/internal/sched"

// Step describes what happened when a policy processed one request. The
// cost models price a Step; the replica protocol turns it into messages.
type Step struct {
	// Op is the request that was processed.
	Op sched.Op
	// HadCopy reports whether the MC held a copy immediately before the
	// request.
	HadCopy bool
	// HasCopy reports whether the MC holds a copy immediately after the
	// request.
	HasCopy bool
	// DataSuppressed is set on a write when the stationary computer (SC)
	// sends only a delete-request instead of propagating the new value.
	// The paper's SW1 does this on every write that finds a copy, and T1m
	// does it on the write that ends its two-copies phase; both are valid
	// only because the SC already knows the MC is about to drop its copy.
	DataSuppressed bool
}

// Allocated reports whether this step allocated a copy at the MC. Per the
// paper, allocation always coincides with a read (the copy piggybacks on
// the read response).
func (s Step) Allocated() bool { return !s.HadCopy && s.HasCopy }

// Deallocated reports whether this step dropped the MC's copy.
func (s Step) Deallocated() bool { return s.HadCopy && !s.HasCopy }

// Code is a Step packed into four bits: the op in bit 0, HadCopy in bit
// 1, HasCopy in bit 2 and DataSuppressed in bit 3. A Step has no other
// content, so Code(c).Step().Code() == c for all NumCodes values. A replay
// prices Codes through a NumCodes-entry table instead of a Model call per
// request.
type Code uint8

// NumCodes is the number of distinct Codes.
const NumCodes = 16

const (
	codeHad        Code = 1 << 1
	codeHas        Code = 1 << 2
	codeSuppressed Code = 1 << 3
)

// Code packs the step.
func (s Step) Code() Code {
	c := Code(s.Op & 1)
	if s.HadCopy {
		c |= codeHad
	}
	if s.HasCopy {
		c |= codeHas
	}
	if s.DataSuppressed {
		c |= codeSuppressed
	}
	return c
}

// Step unpacks the code.
func (c Code) Step() Step {
	return Step{
		Op:             sched.Op(c & 1),
		HadCopy:        c&codeHad != 0,
		HasCopy:        c&codeHas != 0,
		DataSuppressed: c&codeSuppressed != 0,
	}
}

// Policy is an online data allocation algorithm for a single data item and
// a single mobile computer. Implementations are deterministic and are not
// safe for concurrent use.
type Policy interface {
	// Name identifies the algorithm, e.g. "ST1", "SW5", "T1:7"; for a
	// policy a Spec builds, it is the Spec's String.
	Name() string
	// HasCopy reports whether the MC currently holds a copy.
	HasCopy() bool
	// Apply processes the next relevant request and returns what happened.
	Apply(op sched.Op) Step
	// Reset returns the policy to its initial state.
	Reset()
}

// BlockPolicy is a policy with a block form: ST1, ST2, SWk, T1m and T2m.
// A block's steps come back as bits, 64 to a word: step i is
//
//	Step{Op: ops[i], HadCopy: bit i-1, HasCopy: bit i,
//		DataSuppressed: SuppressesWrites() && ops[i] is a write && HadCopy}
//
// where bit -1 is HasCopy() before the block.
type BlockPolicy interface {
	Policy
	// ApplyBlock is Apply on every request of ops in order. It sets bit
	// i%64 of has[i/64] to whether the MC holds a copy after ops[i], clears
	// the bits past len(ops) in the last word, and leaves the policy where
	// the Apply calls would. has must hold (len(ops)+63)/64 words.
	ApplyBlock(ops sched.Schedule, has []uint64)
	// SuppressesWrites reports whether every write that finds a copy is a
	// bare delete-request; when it is false, no step is.
	SuppressesWrites() bool
}

// applyEach is ApplyBlock through Apply, for the thresholds past
// MaxWindow that the kernel cannot hold.
func applyEach(p Policy, ops sched.Schedule, has []uint64) {
	clear(has[:(len(ops)+63)/64])
	for i, op := range ops {
		if p.Apply(op).HasCopy {
			has[i/64] |= 1 << (i & 63)
		}
	}
}

// Run feeds an entire schedule through p and returns the step trace.
// It is a convenience for tests and small experiments; the simulator
// streams instead to avoid materializing traces.
func Run(p Policy, s sched.Schedule) []Step {
	steps := make([]Step, len(s))
	for i, op := range s {
		steps[i] = p.Apply(op)
	}
	return steps
}

// step is a helper for implementations: it fills the bookkeeping fields.
func step(op sched.Op, had, has, suppressed bool) Step {
	return Step{Op: op, HadCopy: had, HasCopy: has, DataSuppressed: suppressed}
}
