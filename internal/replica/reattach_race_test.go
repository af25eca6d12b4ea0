package replica

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/transport"
)

// TestReattachUnderConcurrentReads hammers Reattach and Disconnect while
// reader goroutines issue reads, for the race detector. Every read must
// either succeed with a sane value or fail with ErrOffline/ErrClosed; a
// read must never hang on a waiter that survived the link swap (the stale
// waiter would also swallow the first response of a later read).
func TestReattachUnderConcurrentReads(t *testing.T) {
	store := db.NewStore()
	srv, err := NewServer(store, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	srv.Write("x", []byte("v1"))
	srv.Write("y", []byte("v1"))

	a, b := transport.NewMemPair()
	sess := srv.Attach(a)
	cli, err := NewClient(b, SW(3))
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	const readsPerReader = 200
	var wg sync.WaitGroup
	var served, offline atomic.Int64
	keys := []string{"x", "y"}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				it, err := cli.Read(keys[(r+i)%len(keys)])
				switch {
				case err == nil:
					if it.Version == 0 {
						t.Errorf("read returned version 0 for a written key")
						return
					}
					served.Add(1)
				case errors.Is(err, ErrOffline), errors.Is(err, transport.ErrClosed):
					offline.Add(1)
				default:
					t.Errorf("read failed: %v", err)
					return
				}
			}
		}(r)
	}

	// Cycle the connection while the readers run. Half the cycles go
	// through Disconnect first (the documented sequence), half call
	// Reattach while still online (the hardened path).
	for cycle := 0; cycle < 50; cycle++ {
		if cycle%2 == 0 {
			cli.Disconnect()
		}
		sess.Detach()
		na, nb := transport.NewMemPair()
		sess = srv.Attach(na)
		cli.Reattach(nb)
	}
	wg.Wait()

	// The readers may have spent every read while the link was down (an
	// offline read fails at once), so how many they were served is the
	// scheduler's choice. What must hold is that the client works after
	// the last Reattach.
	if it, err := cli.Read("x"); err != nil || it.Version == 0 {
		t.Fatalf("read after the last Reattach: %+v, %v", it, err)
	}
	t.Logf("reads served=%d offline=%d", served.Load(), offline.Load())
}
