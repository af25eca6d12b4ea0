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

// Policy is a placement policy choice: none, SWk, T1:m or T2:m. It is
// core's Spec; placement runs only those kinds.
type Policy = core.Spec

// PolicySW holds a copy while reads hold the majority of the last K
// observed requests (the paper's SWk, core.Window semantics).
const PolicySW = core.KindSW

// ParsePolicy is core.ParseSpec restricted to the placement kinds.
func ParsePolicy(s string) (Policy, error) {
	p, err := core.ParseSpec(s)
	if err != nil {
		return Policy{}, err
	}
	if err := checkPolicy(p); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// checkPolicy is placement's membership check on top of Validate.
func checkPolicy(p Policy) error {
	switch p.Kind {
	case core.KindNone, core.KindSW, core.KindT1, core.KindT2:
		return p.Validate()
	}
	return fmt.Errorf("tree: bad placement %v (want none, SWk, T1:m or T2:m)", p)
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
// invalid policy; none yields a table that always votes to hold
// (placement disabled — the edge protocol alone decides).
func NewTable(p Policy) *Table {
	if err := checkPolicy(p); err != nil {
		panic(err.Error())
	}
	return &Table{pol: p, ids: make(map[string]uint32)}
}

// Len returns the number of tracked keys.
func (t *Table) Len() int { return len(t.ids) }

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
	case core.KindSW:
		t.sw = append(t.sw, core.NewWindow(t.pol.K, sched.Write))
	case core.KindT1:
		t.t1 = append(t.t1, *core.NewT1(t.pol.K))
	case core.KindT2:
		t.t2 = append(t.t2, *core.NewT2(t.pol.K))
	}
	return r
}

// Holds reports whether the policy currently votes for a copy of key at
// this station. Untracked keys answer the policy's initial state without
// allocating a row.
func (t *Table) Holds(key string) bool {
	if t.pol.Kind == core.KindNone {
		return true
	}
	r, ok := t.ids[key]
	if !ok {
		return t.pol.Kind == core.KindT2
	}
	return t.vote(r)
}

// vote reads row r's current vote.
func (t *Table) vote(r uint32) bool {
	switch t.pol.Kind {
	case core.KindSW:
		return t.sw[r].ReadMajority()
	case core.KindT1:
		return t.t1[r].HasCopy()
	}
	return t.t2[r].HasCopy()
}

// OnRead records a read of key observed at this station and returns the
// policy's (possibly changed) vote. A warm resync moves a copy kept under
// an SWk window, declared: an SW row then observes the window's requests
// instead of one read, so it votes as the window did and keeps the copy
// the edge grants under it. A threshold row, or a read with no window
// declared (the zero Window), observes the one read.
func (t *Table) OnRead(key string, declared core.Window) bool {
	if t.pol.Kind != core.KindSW || declared.Size() == 0 {
		return t.observe(key, sched.Read)
	}
	r := t.row(key)
	t.sw[r].Replay(declared)
	return t.vote(r)
}

// OnWrite records a write of key observed at this station and returns
// the policy's (possibly changed) vote.
func (t *Table) OnWrite(key string) bool { return t.observe(key, sched.Write) }

// observe feeds op to key's row — core's step — and returns the vote.
func (t *Table) observe(key string, op sched.Op) bool {
	if t.pol.Kind == core.KindNone {
		return true
	}
	r := t.row(key) // may grow the row slices: resolve before indexing
	switch t.pol.Kind {
	case core.KindSW:
		t.sw[r].Push(op)
	case core.KindT1:
		t.t1[r].Apply(op)
	case core.KindT2:
		t.t2[r].Apply(op)
	}
	return t.vote(r)
}
