package load

import (
	"flag"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
)

// -restart.soak stretches TestRestartSoakDurable to a CI-grade length;
// the default keeps `go test ./...` quick while still crossing several
// crash cadences.
var restartSoak = flag.Duration("restart.soak", 1200*time.Millisecond,
	"duration of the kill-and-restart soak in TestRestartSoakDurable")

// restartCase is the restart row at the soak's shape.
func restartCase(t *testing.T, sync db.SyncPolicy, d time.Duration, seed uint64) Case {
	c := row(t, "restart")
	c.Sessions, c.Keys, c.Mode, c.Sync = 8, 16, replica.Static2(), sync
	c.Duration, c.RestartEvery, c.Seed = d, 120*time.Millisecond, seed
	return c
}

// TestRestartSoakDurable is the crash-consistency soak under the
// durable policy: repeated power-cut restarts under live read/write
// traffic must lose no acknowledged write and show no client a version
// rollback, while every restart bumps the epoch exactly once and fences
// the warm fleet. Check asserts all four.
func TestRestartSoakDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  db.SyncPolicy
	}{
		{"group", db.SyncGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, restartCase(t, tc.pol, *restartSoak, 7))
			if res.Restarts == 0 {
				t.Fatalf("soak finished without a single restart: %+v", res)
			}
			if res.Samples == 0 || res.Writes == 0 {
				t.Fatalf("soak drove no traffic: %+v", res)
			}
		})
	}
}

// TestRestartSoakNever: under sync=never the crash may take any unsynced
// suffix with it — LostAcked is legitimate — but recovery must still
// converge, the epoch must still bump per restart, and warm clients must
// still be fenced rather than silently resynced.
func TestRestartSoakNever(t *testing.T) {
	res := run(t, restartCase(t, db.SyncNever, 600*time.Millisecond, 11))
	if res.Restarts == 0 || res.Samples == 0 {
		t.Fatalf("soak did not run: %+v", res)
	}
}
