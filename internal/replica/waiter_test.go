package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
)

// Remote reads park on pooled waiters (readWaiter). These tests pin what
// the pool buys — a miss that allocates only the value it returns — and
// what it must never cost: a response, or a Disconnect's close, reaching
// a later read through a recycled channel.

// TestClientRemoteReadAllocs pins the miss path: request encode, waiter,
// timeout timer, server decision, response decode and hand-over together
// allocate at most the returned value.
func TestClientRemoteReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	cli, srv, _ := pair(t, Static1())
	cli.Timeout = time.Second
	want := bytes.Repeat([]byte{7}, 128)
	if _, err := srv.Write("k", want); err != nil {
		t.Fatal(err)
	}
	read := func() {
		it, err := cli.Read("k")
		if err != nil || !bytes.Equal(it.Value, want) {
			t.Fatalf("read = %q, %v", it.Value, err)
		}
	}
	for i := 0; i < 8; i++ {
		read() // warm the pools and the client's per-key state
	}
	if allocs := testing.AllocsPerRun(500, read); allocs > 1 {
		t.Fatalf("remote read allocated %.1f times per run, want at most 1 (the returned value)", allocs)
	}
}

// lateLink delivers each frame sent through it after the delay the test
// picked for it, on its own goroutine: the response to a read can arrive
// before, at, or long after the reader gave up.
type lateLink struct {
	transport.Link
	delay func() time.Duration
	wg    sync.WaitGroup
}

func (l *lateLink) Send(frame []byte) error {
	f := append([]byte(nil), frame...)
	d := l.delay()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(d)
		_ = l.Link.Send(f)
	}()
	return nil
}

// TestLateResponseNeverReachesALaterRead: readers on distinct keys give up
// (client Timeout, or their context) while their responses are in flight,
// and go straight on to the next key. A waiter recycled while a sender
// could still hold its channel would hand one key's late value to another
// key's read. Run under -race.
func TestLateResponseNeverReachesALaterRead(t *testing.T) {
	const timeout = 2 * time.Millisecond
	for _, giveUp := range []string{"timeout", "cancel"} {
		t.Run(giveUp, func(t *testing.T) {
			a, b := transport.NewMemPair()
			srv, err := NewServer(db.NewStore(), Static1())
			if err != nil {
				t.Fatal(err)
			}
			srv.Attach(a)
			var mu sync.Mutex
			n := 0
			late := &lateLink{Link: b, delay: func() time.Duration {
				mu.Lock()
				defer mu.Unlock()
				n++
				return time.Duration(n%5) * timeout / 2 // 0 to 2x the reader's patience
			}}
			cli, err := NewClient(late, Static1())
			if err != nil {
				t.Fatal(err)
			}
			if giveUp == "timeout" {
				cli.Timeout = timeout
			}
			const readers, reads = 4, 150
			for g := 0; g < readers; g++ {
				for i := 0; i < reads; i++ {
					key := fmt.Sprintf("k%d-%d", g, i)
					if _, err := srv.Write(key, []byte(key)); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			var served, gaveUp int
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < reads; i++ {
						key := fmt.Sprintf("k%d-%d", g, i)
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if giveUp == "cancel" {
							ctx, cancel = context.WithTimeout(ctx, timeout)
						}
						it, err := cli.ReadContext(ctx, key)
						cancel()
						mu.Lock()
						switch {
						case err == nil && string(it.Value) == key:
							served++
						case errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
							gaveUp++
						default:
							t.Errorf("read %s = %q, %v", key, it.Value, err)
						}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			late.wg.Wait()
			if served == 0 || gaveUp == 0 {
				t.Fatalf("%d reads served, %d given up: the test needs both", served, gaveUp)
			}
		})
	}
}

// TestFailedWaitersAreNotRecycled: Disconnect and Suspend close the
// channels of parked readers. A closed channel back in the pool would
// fail an unrelated later read with ErrOffline the moment it parked.
func TestFailedWaitersAreNotRecycled(t *testing.T) {
	for _, name := range []string{"Disconnect", "Suspend"} {
		t.Run(name, func(t *testing.T) {
			blackhole, b := transport.NewMemPair()
			blackhole.SetHandler(func([]byte) {})
			cli, err := NewClient(b, Static1())
			if err != nil {
				t.Fatal(err)
			}
			cli.Timeout = 5 * time.Second
			const parked = 8
			errs := make(chan error, parked)
			for i := 0; i < parked; i++ {
				go func(i int) {
					_, err := cli.Read(fmt.Sprintf("p%d", i%3)) // some share a key
					errs <- err
				}(i)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				cli.mu.Lock()
				n := 0
				for _, w := range cli.pending {
					for ; w != nil; w = w.next {
						n++
					}
				}
				cli.mu.Unlock()
				if n == parked {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d readers parked", n, parked)
				}
				time.Sleep(time.Millisecond)
			}
			if name == "Disconnect" {
				cli.Disconnect()
			} else {
				cli.Suspend()
			}
			for i := 0; i < parked; i++ {
				if err := <-errs; !errors.Is(err, ErrOffline) {
					t.Fatalf("parked read returned %v, want ErrOffline", err)
				}
			}

			// Back online against a real server: every read is served.
			a2, b2 := transport.NewMemPair()
			srv, err := NewServer(db.NewStore(), Static1())
			if err != nil {
				t.Fatal(err)
			}
			srv.Attach(a2)
			cli.Reattach(b2)
			for i := 0; i < 4*parked; i++ {
				key := fmt.Sprintf("q%d", i)
				if _, err := srv.Write(key, []byte(key)); err != nil {
					t.Fatal(err)
				}
				if it, err := cli.Read(key); err != nil || string(it.Value) != key {
					t.Fatalf("read %s after %s = %q, %v", key, name, it.Value, err)
				}
			}
		})
	}
}
