package load

import (
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/replica"
	"mobirep/internal/tree"
)

func TestRunTreeValidation(t *testing.T) {
	c := row(t, "tree")
	c.Sessions, c.Duration = 0, 10*time.Millisecond
	if _, err := Run(c); err == nil {
		t.Error("Run accepted zero sessions")
	}
	c.Sessions, c.Shards = 10, 3
	if _, err := Run(c); err == nil {
		t.Error("Run accepted a non-power-of-two shard count")
	}
}

// TestRunTreeSmallFleet is the tree drive in miniature: a seven-station
// binary tree, motion every 25 reads, a placement policy shedding relay
// copies under the writes. Fault-free links mean every read must
// succeed, every handoff must arrive warm, and the root's writers must
// keep writing.
func TestRunTreeSmallFleet(t *testing.T) {
	c := row(t, "tree")
	c.Stations, c.Sessions, c.Shards, c.Mode = 7, 200, 2, replica.Static2()
	c.Placement = tree.Policy{Kind: core.KindT1, K: 2}
	c.Duration, c.HandoffEvery, c.Seed = 300*time.Millisecond, 25, 7
	res := run(t, c)
	if res.Sessions != 200 || res.Stations != 7 || res.Leaves != 4 {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.SessionsPerSec <= 0 || res.AttachSeconds <= 0 {
		t.Fatalf("attach metrics not measured: %+v", res)
	}
	if res.Ops == 0 || res.Samples == 0 {
		t.Fatalf("drive phase issued no reads: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("fault-free tree run reported %d errors", res.Errors)
	}
	checkWriters(t, c, res)
	if res.Handoffs == 0 {
		t.Fatalf("motion enabled but no handoffs completed: %+v", res)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.HandoffP99 < res.HandoffP50 || res.HandoffMax < res.HandoffP99 {
		t.Fatalf("handoff percentiles out of order: %+v", res)
	}
}
