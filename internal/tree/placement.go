package tree

import (
	"fmt"
	"strings"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

// Per-key replica placement. The edge protocol decides where copies MAY
// live (a child can only hold a key its parent grants, and the
// allocation gate keeps copies on a contiguous root-to-leaf path); the
// placement table decides where they SHOULD: each station runs one of
// the paper's adaptive policies — the SWk sliding window, or the
// competitive T1m/T2m threshold schemes of section 7.1 — over the
// read/write traffic it actually observes for each key, and sheds
// (DropCopy) any copy the policy votes against. Placement is advisory:
// it only ever removes copies, so it shifts cost, never correctness.
//
// The table holds no transition logic of its own: one map lookup
// resolves a key to a row, and a row is an internal/core value — a
// core.Window for SW, a core.T1 or core.T2 for the thresholds — stored
// inline in a slice, so a tracked key costs no heap object beyond its
// map entry and every step is core's.

// PolicyKind selects the placement algorithm.
type PolicyKind uint8

const (
	// PolicyNone disables placement: the edge protocol alone decides.
	PolicyNone PolicyKind = iota
	// PolicySW holds a copy while reads hold the majority of the last K
	// observed requests (the paper's SWk, core.Window semantics).
	PolicySW
	// PolicyT1 holds a copy after K consecutive reads, until the next
	// write (the paper's T1m, core.T1 semantics; K is m).
	PolicyT1
	// PolicyT2 holds a copy until K consecutive writes, re-holding on
	// the next read (the paper's T2m, core.T2 semantics; K is m).
	PolicyT2
)

// Policy is a placement policy choice: the algorithm and its parameter
// (window size for SW, threshold m for T1/T2).
type Policy struct {
	Kind PolicyKind
	K    int
}

// ParsePolicy parses a placement spec: "none", "SWk", "T1:m" or "T2:m".
func ParsePolicy(s string) (Policy, error) {
	if s == "" || s == "none" {
		return Policy{Kind: PolicyNone}, nil
	}
	var k int
	switch {
	case parseInt(s, "SW%d", &k):
		return checkPolicy(Policy{Kind: PolicySW, K: k})
	case parseInt(s, "T1:%d", &k):
		return checkPolicy(Policy{Kind: PolicyT1, K: k})
	case parseInt(s, "T2:%d", &k):
		return checkPolicy(Policy{Kind: PolicyT2, K: k})
	}
	return Policy{}, fmt.Errorf("tree: bad placement %q (want none, SWk, T1:m or T2:m)", s)
}

func parseInt(s, format string, k *int) bool {
	n, err := fmt.Sscanf(s, format, k)
	return err == nil && n == 1 && fmt.Sprintf(format, *k) == s
}

func checkPolicy(p Policy) (Policy, error) {
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

func (p Policy) String() string {
	switch p.Kind {
	case PolicyNone:
		return "none"
	case PolicySW:
		return fmt.Sprintf("SW%d", p.K)
	case PolicyT1:
		return fmt.Sprintf("T1(%d)", p.K)
	case PolicyT2:
		return fmt.Sprintf("T2(%d)", p.K)
	}
	return "?"
}

// Validate checks the parameter range. SW windows share the one bound
// every window in the program has, core.MaxWindow; unlike the SWk
// policy, placement accepts an even K (a tie votes against the copy).
func (p Policy) Validate() error {
	switch p.Kind {
	case PolicyNone:
		return nil
	case PolicySW:
		if err := core.CheckWindowSize(p.K); err != nil {
			return fmt.Errorf("tree: SW placement %w", err)
		}
		return nil
	case PolicyT1, PolicyT2:
		if p.K < 1 {
			return fmt.Errorf("tree: T* placement threshold %d must be positive", p.K)
		}
		return nil
	}
	return fmt.Errorf("tree: unknown placement kind %d", p.Kind)
}

// Table is the per-key placement state for one station. Not
// goroutine-safe; the owning station serializes access.
type Table struct {
	pol Policy
	ids map[string]uint32

	// Rows, indexed by ids; only the slice of the table's kind is used.
	sw []core.Window
	t1 []core.T1
	t2 []core.T2
}

// NewTable returns an empty table for the given policy. Panics on an
// invalid policy; PolicyNone yields a table that always votes to hold
// (placement disabled — the edge protocol alone decides).
func NewTable(p Policy) *Table {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	return &Table{pol: p, ids: make(map[string]uint32)}
}

// Len returns the number of tracked keys.
func (t *Table) Len() int { return len(t.ids) }

// Policy returns the table's policy.
func (t *Table) Policy() Policy { return t.pol }

// row resolves key to its row, creating it in the policy's initial
// state: SW starts all-writes (one-copy scheme, like a freshly attached
// MC), T1 starts not holding, T2 starts holding.
func (t *Table) row(key string) uint32 {
	r, ok := t.ids[key]
	if ok {
		return r
	}
	r = uint32(len(t.ids))
	// The map retains its key; clone in case the caller's aliases
	// transport memory.
	t.ids[strings.Clone(key)] = r
	switch t.pol.Kind {
	case PolicySW:
		t.sw = append(t.sw, core.NewWindow(t.pol.K, sched.Write))
	case PolicyT1:
		t.t1 = append(t.t1, *core.NewT1(t.pol.K))
	case PolicyT2:
		t.t2 = append(t.t2, *core.NewT2(t.pol.K))
	}
	return r
}

// Holds reports whether the policy currently votes for a copy of key at
// this station. Untracked keys answer the policy's initial state without
// allocating a row.
func (t *Table) Holds(key string) bool {
	if t.pol.Kind == PolicyNone {
		return true
	}
	r, ok := t.ids[key]
	if !ok {
		return t.pol.Kind == PolicyT2
	}
	return t.vote(r)
}

// vote reads row r's current vote.
func (t *Table) vote(r uint32) bool {
	switch t.pol.Kind {
	case PolicySW:
		return t.sw[r].ReadMajority()
	case PolicyT1:
		return t.t1[r].HasCopy()
	}
	return t.t2[r].HasCopy()
}

// OnRead records a read of key observed at this station and returns the
// policy's (possibly changed) vote.
func (t *Table) OnRead(key string) bool { return t.observe(key, sched.Read) }

// OnWrite records a write of key observed at this station and returns
// the policy's (possibly changed) vote.
func (t *Table) OnWrite(key string) bool { return t.observe(key, sched.Write) }

// observe feeds op to key's row — core's step — and returns the vote.
func (t *Table) observe(key string, op sched.Op) bool {
	if t.pol.Kind == PolicyNone {
		return true
	}
	r := t.row(key) // may grow the row slices: resolve before indexing
	switch t.pol.Kind {
	case PolicySW:
		t.sw[r].Push(op)
	case PolicyT1:
		t.t1[r].Apply(op)
	case PolicyT2:
		t.t2[r].Apply(op)
	}
	return t.vote(r)
}
