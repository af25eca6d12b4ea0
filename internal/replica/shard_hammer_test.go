package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// TestShardChurnHammer slams every shard transition concurrently:
// attach, frame traffic (reads, pings, delete-requests, resync batches),
// explicit detach, write fan-out across all shards, and the idle reaper
// with a zero TTL so it races the detaches for every live session. Run
// under -race (ci.sh does) this is the memory-model proof for the
// single-writer shard core; in any mode the final accounting must come
// out exact — no leaked, double-counted, or double-closed sessions.
func TestShardChurnHammer(t *testing.T) {
	srv, err := NewServerShards(db.NewStore(), SW(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := srv.Write(keys[i], []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}

	gBefore := gSessions.Load()
	// Per-shard occupancy gauges are process-global; compare deltas.
	occBefore := make([]int64, srv.Shards())
	for i, sh := range srv.shards {
		occBefore[i] = sh.occupancy.Load()
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}
	const churners = 8
	done := make(chan struct{})
	var churnWg, bgWg sync.WaitGroup

	// Churners: each cycles sessions through their whole lifetime. Half
	// the sessions are detached explicitly, half are left for the
	// reaper — both teardown paths race with live traffic.
	for c := 0; c < churners; c++ {
		churnWg.Add(1)
		go func(c int) {
			defer churnWg.Done()
			rng := stats.NewRNG(uint64(1000 + c))
			for i := 0; i < iters; i++ {
				a, b := transport.NewMemPair()
				b.SetHandler(func([]byte) {})
				sess := srv.Attach(a)
				for f := 0; f < 4; f++ {
					key := keys[rng.Intn(len(keys))]
					var frame []byte
					switch rng.Intn(4) {
					case 0:
						frame, _ = wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: key})
					case 1:
						frame, _ = wire.AppendEncode(nil, wire.Message{Kind: wire.KindPing, Version: uint64(f)})
					case 2:
						frame, _ = wire.AppendEncode(nil, wire.Message{Kind: wire.KindDeleteReq, Key: key})
					case 3:
						frame, _ = wire.AppendEncodeBatch(nil, wire.Batch{
							Kind: wire.KindResyncReq, Keys: []string{key}, Versions: []uint64{1},
						})
					}
					// Deliver from the client end: the handler runs the
					// session's event on this goroutine, concurrently with
					// every other shard actor.
					_ = b.Send(frame)
				}
				if rng.Bernoulli(0.5) {
					sess.Detach()
				}
			}
		}(c)
	}

	// Writers: fan out across all shards' key indexes continuously.
	for w := 0; w < 2; w++ {
		bgWg.Add(1)
		go func(w int) {
			defer bgWg.Done()
			rng := stats.NewRNG(uint64(2000 + w))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := keys[rng.Intn(len(keys))]
				if _, err := srv.Write(key, []byte("hammer")); err != nil {
					t.Errorf("write %s: %v", key, err)
					return
				}
			}
		}(w)
	}

	// Reaper: a zero TTL makes every attached session stale immediately,
	// so each sweep races the churners' explicit Detach calls.
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			srv.ExpireIdle(0)
			_ = srv.Sessions()
			_ = srv.ShardSessions()
			// The key index must be exact at every instant a shard token
			// can be had, not only once the dust settles.
			checkKeyIndex(t, srv)
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for the churners (with a watchdog), then stop the unbounded
	// background actors.
	churnDone := make(chan struct{})
	go func() {
		churnWg.Wait()
		close(churnDone)
	}()
	select {
	case <-churnDone:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer deadlocked: churners did not finish in 60s")
	}
	close(done)
	bgWg.Wait()

	// Final accounting: reap everything left and prove the books balance.
	srv.ExpireIdle(0)
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("%d sessions leaked after final reap", got)
	}
	if got := gSessions.Load() - gBefore; got != 0 {
		t.Fatalf("global sessions gauge off by %d after full churn", got)
	}
	total := 0
	for sh, c := range srv.ShardSessions() {
		if got := srv.shards[sh].occupancy.Load() - occBefore[sh]; got != int64(c) {
			t.Fatalf("shard %d occupancy gauge moved by %d, want %d", sh, got, c)
		}
		if c < 0 {
			t.Fatalf("shard %d count negative: %d", sh, c)
		}
		total += c
	}
	if total != 0 {
		t.Fatalf("per-shard counts sum to %d after full churn, want 0", total)
	}
	for _, sh := range srv.shards {
		sh.enter()
		if len(sh.index) != 0 {
			t.Fatalf("shard %d key index retains %d keys after all sessions gone", sh.id, len(sh.index))
		}
		sh.exit()
	}
}
