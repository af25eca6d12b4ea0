package replica

import (
	"errors"
	"fmt"
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/transport"
)

// End-to-end crash-consistency sweeps: a real server on a CrashFS-backed
// store, a real client over an in-memory link, a simulated power cut at
// every reachable point, and a restart through the same recovery path
// the supervisor drives. The contract under test is the ISSUE's headline
// guarantee: under sync=group, zero acknowledged writes
// are lost and no client ever sees a version roll back; under
// sync=never, any durable prefix may survive, and the epoch fence must
// advertise the restart before the client can read through it.

// crashHarness is one server+client pair on a power-cut filesystem.
type crashHarness struct {
	cfs   *db.CrashFS
	store *db.Store
	srv   *Server
	sess  *Session
	cli   *Client
}

func newCrashHarness(t *testing.T, pol db.SyncPolicy) *crashHarness {
	t.Helper()
	h := &crashHarness{cfs: db.NewCrashFS()}
	var err error
	h.store, err = db.OpenWith(db.Options{Path: "sc.log", Sync: pol, FS: h.cfs})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	h.srv, err = NewServer(h.store, Static2())
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	sLink, cLink := transport.NewMemPair()
	h.cli, err = NewClient(cLink, Static2())
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	// Attach after the client exists: the mem pair delivers synchronously,
	// so the epoch greeting lands in the client's handler right here.
	h.sess = h.srv.Attach(sLink)
	if got, want := h.cli.Epoch(), h.store.Epoch(); got != want {
		t.Fatalf("client adopted epoch %d from the greeting, store at %d", got, want)
	}
	return h
}

// restart power-cuts the filesystem keeping the first keep journaled
// ops, reopens the store, and rebuilds the server — volatile state lost,
// durable prefix kept, epoch bumped.
func (h *crashHarness) restart(t *testing.T, pol db.SyncPolicy, keep int) {
	t.Helper()
	oldEpoch := h.store.Epoch()
	h.cli.Suspend()
	h.cfs.Kill(keep)
	var err error
	h.store, err = db.OpenWith(db.Options{Path: "sc.log", Sync: pol, FS: h.cfs})
	if err != nil {
		t.Fatalf("reopen store after crash: %v", err)
	}
	if h.store.Epoch() != oldEpoch+1 {
		t.Fatalf("restart: epoch %d -> %d, want +1", oldEpoch, h.store.Epoch())
	}
	h.srv, err = NewServer(h.store, Static2())
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
}

// recover redials: a fresh pair, attach (the greeting is lost — the
// client's handler moves to the new link only inside ResumeResync, which
// is exactly the race a real redial has), then the warm resync whose
// authoritative epoch either admits the client or fences it. Returns
// whether the client was fenced.
func (h *crashHarness) recover(t *testing.T) bool {
	t.Helper()
	sLink, cLink := transport.NewMemPair()
	h.sess = h.srv.Attach(sLink)
	if _, err := h.cli.ResumeResync(cLink); err != nil {
		t.Fatalf("resume resync: %v", err)
	}
	fenced := h.cli.EpochFenced()
	if fenced {
		// The supervisor's move: a fence demands a cold reattach, and
		// until it happens every read must advertise the restart.
		if _, err := h.cli.Read("any"); !errors.Is(err, ErrEpochChanged) {
			t.Fatalf("read while fenced: err=%v, want ErrEpochChanged", err)
		}
		h.cli.Reattach(cLink)
		if got, want := h.cli.Epoch(), h.store.Epoch(); got != want {
			t.Fatalf("client at epoch %d after fence, server at %d", got, want)
		}
	}
	if h.cli.Offline() {
		t.Fatalf("client still offline after recovery")
	}
	return fenced
}

var sweepKeys = [3]string{"a", "b", "c"}

// runWrites issues n acknowledged writes round-robin over three keys and
// returns the committed version per key, plus the versions the client
// has observed by reading each written key.
func (h *crashHarness) runWrites(t *testing.T, n int) (acked, seen map[string]uint64) {
	t.Helper()
	acked = make(map[string]uint64)
	seen = make(map[string]uint64)
	for w := 0; w < n; w++ {
		key := sweepKeys[w%len(sweepKeys)]
		it, err := h.srv.Write(key, []byte(fmt.Sprintf("%s#%d", key, w)))
		if err != nil {
			t.Fatalf("write %d (%s): %v", w, key, err)
		}
		acked[key] = it.Version
	}
	for key := range acked {
		it, err := h.cli.Read(key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		seen[key] = it.Version
	}
	return acked, seen
}

// TestRestartKillPointSweep crashes the server after every acknowledged
// write count, with the harshest possible cut (nothing unsynced
// survives), under the durable policy. Every acknowledged write must
// be present at its exact version after restart, and the client — fenced
// or not — must never read a version below what it saw before the cut.
func TestRestartKillPointSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  db.SyncPolicy
	}{
		{"group", db.SyncGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const maxWrites = 8
			for n := 0; n <= maxWrites; n++ {
				h := newCrashHarness(t, tc.pol)
				acked, seen := h.runWrites(t, n)

				// An acknowledged write is durable by contract: once the
				// ack is out, nothing it needs may still sit in the
				// unsynced journal, so Kill(0) — the worst cut there is —
				// must not touch it.
				if ops := h.cfs.Ops(); ops != 0 {
					t.Fatalf("n=%d: %d journaled ops remain after %d acked writes; acked data is not durable",
						n, ops, n)
				}
				h.restart(t, tc.pol, 0)
				for key, v := range acked {
					it, ok := h.store.Get(key)
					if !ok || it.Version != v {
						t.Fatalf("n=%d: acked write %s v%d lost (got v%d, present=%v)",
							n, key, v, it.Version, ok)
					}
				}

				fenced := h.recover(t)
				if n > 0 && !fenced {
					t.Fatalf("n=%d: client held pre-crash copies but was not fenced", n)
				}
				for key, v := range seen {
					it, err := h.cli.Read(key)
					if err != nil {
						t.Fatalf("n=%d: post-restart read %s: %v", n, key, err)
					}
					if it.Version < v {
						t.Fatalf("n=%d: client-visible rollback on %s: saw v%d, now v%d",
							n, key, v, it.Version)
					}
				}
				h.store.Close()
			}
		})
	}
}

// TestRestartKillPointSweepNever runs the same workload under sync=never
// and sweeps the power cut across every journaled op boundary. Any
// prefix of the acknowledged writes may survive — that is the policy's
// contract — but whatever does survive must be an exact prefix (no
// holes, no corruption), the epoch must bump, and a client that saw
// newer versions must be fenced before it can read the rolled-back
// state: the divergence is advertised, never silent.
func TestRestartKillPointSweepNever(t *testing.T) {
	const nWrites = 8
	// Probe run: count the journaled ops the full workload produces.
	probe := newCrashHarness(t, db.SyncNever)
	probe.runWrites(t, nWrites)
	ops := probe.cfs.Ops()
	probe.store.Close()
	if ops < nWrites {
		t.Fatalf("probe: %d journaled ops for %d unsynced writes", ops, nWrites)
	}

	for cut := 0; cut <= ops; cut++ {
		h := newCrashHarness(t, db.SyncNever)
		acked, seen := h.runWrites(t, nWrites)
		h.restart(t, db.SyncNever, cut)

		// Whatever survives must be a prefix of the acknowledged history:
		// no key beyond its acked version, no phantom versions.
		for key, v := range acked {
			if it, _ := h.store.Get(key); it.Version > v {
				t.Fatalf("cut=%d: %s surfaced v%d beyond acked v%d", cut, key, it.Version, v)
			}
		}

		if !h.recover(t) {
			t.Fatalf("cut=%d: client held pre-crash copies but was not fenced", cut)
		}
		// Post-fence reads succeed against the rolled-back store: the
		// regression was advertised by the fence, so serving the older
		// surviving versions is now honest.
		for key := range seen {
			if _, err := h.cli.Read(key); err != nil {
				t.Fatalf("cut=%d: post-recovery read %s: %v", cut, key, err)
			}
		}
		h.store.Close()
	}
}
