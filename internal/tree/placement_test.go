package tree

import (
	"fmt"
	"testing"

	"mobirep/internal/core"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// The table's rows are internal/core values and every step is core's, so
// what is left to check is the table itself: key-to-row resolution, row
// growth while other rows are live, the initial state of a fresh row, and
// independence between interleaved keys. One run per policy drives a
// table and one independent reference per key over a random op stream.

// voter is the per-key reference: feed an op, get the vote.
type voter func(op sched.Op) bool

func checkTableAgainst(t *testing.T, pol Policy, seed uint64, newRef func() voter) {
	t.Helper()
	rng := stats.NewRNG(seed)
	tab := NewTable(pol)
	keys := manyKeys(70)
	ref := map[string]voter{}
	for step := 0; step < 4000; step++ {
		key := keys[rng.Intn(len(keys))]
		if ref[key] == nil {
			ref[key] = newRef()
		}
		var got, want bool
		if rng.Intn(2) == 0 {
			want, got = ref[key](sched.Read), tab.OnRead(key, core.Window{})
		} else {
			want, got = ref[key](sched.Write), tab.OnWrite(key)
		}
		if got != want {
			t.Fatalf("step %d key %s: table votes %v, reference %s votes %v", step, key, got, pol, want)
		}
		if tab.Holds(key) != got {
			t.Fatalf("step %d key %s: Holds disagrees with the On* return", step, key)
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("table tracks %d keys, %d were touched", tab.Len(), len(ref))
	}
}

// TestPlacementSWEquivalence checks SW rows against a naive slide: the
// last K observed requests, all writes before the first, hold on a strict
// read majority.
func TestPlacementSWEquivalence(t *testing.T) {
	for _, k := range []int{1, 3, 5, 9, 17} {
		t.Run(fmt.Sprintf("SW%d", k), func(t *testing.T) {
			checkTableAgainst(t, Policy{Kind: PolicySW, K: k}, uint64(1000+k), func() voter {
				last := sched.Block(sched.Write, k)
				return func(op sched.Op) bool {
					last = append(last[1:], op)
					reads, writes := last.Counts()
					return reads > writes
				}
			})
		})
	}
}

// TestPlacementTStarEquivalence checks T1/T2 rows against one core policy
// per key.
func TestPlacementTStarEquivalence(t *testing.T) {
	for _, m := range []int{1, 2, 3, 7} {
		for _, tc := range []struct {
			name string
			kind core.Kind
			seed int
		}{{"T1", core.KindT1, 2200}, {"T2", core.KindT2, 2300}} {
			pol := Policy{Kind: tc.kind, K: m}
			t.Run(fmt.Sprintf("%s(%d)", tc.name, m), func(t *testing.T) {
				checkTableAgainst(t, pol, uint64(tc.seed+m), func() voter {
					p := pol.New()
					return func(op sched.Op) bool { return p.Apply(op).HasCopy }
				})
			})
		}
	}
}

func TestPlacementInitialVotes(t *testing.T) {
	// Untracked keys answer the policy's initial state without allocating.
	sw := NewTable(Policy{Kind: PolicySW, K: 3})
	if sw.Holds("x") {
		t.Fatal("SW starts all-writes: must not vote to hold an untracked key")
	}
	t1 := NewTable(Policy{Kind: core.KindT1, K: 2})
	if t1.Holds("x") {
		t.Fatal("T1 starts not holding")
	}
	t2 := NewTable(Policy{Kind: core.KindT2, K: 2})
	if !t2.Holds("x") {
		t.Fatal("T2 starts holding")
	}
	if sw.Len() != 0 || t1.Len() != 0 || t2.Len() != 0 {
		t.Fatal("Holds must not allocate rows")
	}
	none := NewTable(Policy{})
	if !none.OnRead("x", core.Window{}) || !none.OnWrite("x") || !none.Holds("x") {
		t.Fatal("none always votes to hold")
	}
}

// TestPolicyValidate pins placement's membership check: none, odd SWk,
// T1:m and T2:m pass and round-trip through ParsePolicy; an even or
// out-of-range window, a zero threshold and a kind placement does not run
// are refused.
func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{Kind: PolicySW, K: 0},
		{Kind: PolicySW, K: 64},
		{Kind: PolicySW, K: core.MaxWindow},
		{Kind: PolicySW, K: core.MaxWindow + 1},
		{Kind: core.KindT1, K: 0},
		{Kind: core.KindT2, K: -1},
		{Kind: core.KindST2},
		{Kind: core.KindEWMA, Alpha: 0.5},
		{Kind: core.Kind(99), K: 1},
	}
	for _, p := range bad {
		if err := checkPolicy(p); err == nil {
			t.Errorf("checkPolicy accepted %+v", p)
		}
		if _, err := ParsePolicy(p.String()); err == nil {
			t.Errorf("ParsePolicy accepted %q", p)
		}
	}
	good := []Policy{{}, {Kind: core.KindT1, K: 1}, {Kind: core.KindT2, K: 9}}
	for _, k := range []int{1, 63, 65, 127} {
		good = append(good, Policy{Kind: PolicySW, K: k})
	}
	for _, p := range good {
		if err := checkPolicy(p); err != nil {
			t.Errorf("checkPolicy rejected %v: %v", p, err)
		}
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
}

func manyKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%02d", i)
	}
	return out
}
