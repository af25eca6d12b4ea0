package tree

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// Live-link integration: real in-memory links, no chaos. These prove the
// relay wiring end to end — read-through along a chain, downward write
// propagation, drop cascades, placement shedding, and warm handoff —
// while conformance_test.go hammers the same machinery under seeded
// faults. An in-memory link delivers inside Send, so every effect of a
// call has happened when it returns: the tests assert right after it.

func memConnect(child, parent int) (transport.Link, transport.Link, error) {
	a, b := transport.NewMemPair()
	return a, b, nil
}

func buildTest(t *testing.T, topo Topology, mode replica.Mode, placement Policy) (*Tree, *db.Store) {
	t.Helper()
	store := db.NewStore()
	tr, err := Build(topo, store, mode, 1, placement, memConnect)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr, store
}

func attachTestMC(t *testing.T, tr *Tree, station int) *MC {
	t.Helper()
	a, b := transport.NewMemPair()
	mc, err := tr.AttachMC(station, a, b)
	if err != nil {
		t.Fatalf("AttachMC(%d): %v", station, err)
	}
	mc.Client.Timeout = 5 * time.Second
	return mc
}

// check fails the test unless cond holds.
func check(t *testing.T, what string, cond bool) {
	t.Helper()
	if !cond {
		t.Fatalf("no %s", what)
	}
}

func TestChainReadThroughAndPropagation(t *testing.T) {
	tr, _ := buildTest(t, Chain(3), replica.Static2(), Policy{})
	mc := attachTestMC(t, tr, 2)

	if _, err := tr.Stations[0].Server().Write("x", []byte("x#1")); err != nil {
		t.Fatalf("root write: %v", err)
	}
	it, err := mc.Client.Read("x")
	if err != nil {
		t.Fatalf("read through 2-hop chain: %v", err)
	}
	if it.Version != 1 || string(it.Value) != "x#1" {
		t.Fatalf("read = v%d %q, want v1 x#1", it.Version, it.Value)
	}

	// ST2 allocates on every hop of the fetch path: the copy chain is
	// root-contiguous and the MC now holds a copy.
	check(t, "copies along the path", tr.Stations[1].Client().HasCopy("x") &&
		tr.Stations[2].Client().HasCopy("x") &&
		mc.Client.HasCopy("x"))

	// A root write now rides the propagation path down every hop.
	if _, err := tr.Stations[0].Server().Write("x", []byte("x#2")); err != nil {
		t.Fatalf("root write: %v", err)
	}
	it, err = mc.Client.Read("x")
	check(t, "write propagation to the MC", err == nil && it.Version == 2 && string(it.Value) == "x#2")
}

func TestDropCascade(t *testing.T) {
	tr, _ := buildTest(t, Chain(3), replica.Static2(), Policy{})
	mc := attachTestMC(t, tr, 2)

	tr.Stations[0].Server().Write("x", []byte("x#1"))
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read: %v", err)
	}
	check(t, "MC copy", mc.Client.HasCopy("x"))

	// Shedding the top relay's copy must cascade: station 2 and the MC
	// may not hold what station 1 no longer does.
	if !tr.Stations[1].Client().DropCopy("x") {
		t.Fatal("DropCopy: station 1 held no copy")
	}
	check(t, "cascade to the MC", !tr.Stations[2].Client().HasCopy("x") && !mc.Client.HasCopy("x"))

	// The path re-forms on the next read.
	it, err := mc.Client.Read("x")
	if err != nil || it.Version != 1 {
		t.Fatalf("re-read after cascade = v%d, %v", it.Version, err)
	}
	check(t, "re-allocation", mc.Client.HasCopy("x"))
}

func TestPlacementShedsAndReholds(t *testing.T) {
	// T1(2) at the relay: it refuses the copy until two consecutive
	// reads, and sheds it again on the next write.
	tr, _ := buildTest(t, Chain(2), replica.Static2(), Policy{Kind: core.KindT1, K: 2})
	mc := attachTestMC(t, tr, 1)
	st := tr.Stations[1]

	tr.Stations[0].Server().Write("x", []byte("x#1"))

	// First read: the fetch allocates, then placement (1 read < 2) sheds.
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	check(t, "placement shed after one read", !st.Client().HasCopy("x") && !mc.Client.HasCopy("x"))

	// Second consecutive read crosses the T1 threshold: the copy stays.
	if _, err := mc.Client.Read("x"); err != nil {
		t.Fatalf("read 2: %v", err)
	}
	check(t, "copy held after the threshold", st.Client().HasCopy("x") && mc.Client.HasCopy("x"))

	// A write ends T1's two-copies phase: the relay sheds and cascades.
	tr.Stations[0].Server().Write("x", []byte("x#2"))
	check(t, "placement shed on write", !st.Client().HasCopy("x") && !mc.Client.HasCopy("x"))

	// Correctness is untouched: the next read sees the new version.
	it, err := mc.Client.Read("x")
	if err != nil || it.Version != 2 {
		t.Fatalf("read after shed = v%d, %v", it.Version, err)
	}
}

func TestHandoffWarm(t *testing.T) {
	tr, _ := buildTest(t, Binary(3), replica.Static2(), Policy{})
	mc := attachTestMC(t, tr, 1)

	tr.Stations[0].Server().Write("x", []byte("x#1"))
	if it, err := mc.Client.Read("x"); err != nil || it.Version != 1 {
		t.Fatalf("read at station 1 = v%d, %v", it.Version, err)
	}
	check(t, "warm copy at station 1", mc.Client.HasCopy("x"))

	// Move to the sibling: state migrates through the root (the common
	// ancestor), revalidated rather than re-shipped.
	a, b := transport.NewMemPair()
	done, err := mc.Handoff(2, a, b)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handoff resync did not complete")
	}
	if !mc.FinishHandoff(a) {
		t.Fatal("handoff fell back to cold")
	}
	if mc.Station() != 2 {
		t.Fatalf("Station() = %d, want 2", mc.Station())
	}

	// The warm copy survived the move and the new path propagates.
	if it, err := mc.Client.Read("x"); err != nil || it.Version != 1 {
		t.Fatalf("read after handoff = v%d, %v", it.Version, err)
	}
	tr.Stations[0].Server().Write("x", []byte("x#2"))
	it, err := mc.Client.Read("x")
	check(t, "propagation via station 2", err == nil && it.Version == 2)
}

// TestWarmHandoffKeepsCopies: an MC that has read its keys to a copy
// hands off twice in Binary(7), to its sibling leaf (3 -> 4, through relay
// 1) and across the root (4 -> 5, through relay 2). Under SWk the resync
// declares each copy's window, and every station on the new path decides
// the key over it, so every copy is kept at the MC and at every station
// on the new path; ST2 without placement keeps them by its own rule, as
// it always has. T1:2 placement sheds
// at a new station, which has seen one read of the key, so every copy is
// revoked. Whatever is kept, the contiguity invariant holds.
func TestWarmHandoffKeepsCopies(t *testing.T) {
	const n = 8
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	counter := func(result string) *obs.Counter {
		return obs.Default().Counter(`mobirep_replica_resync_keys_total{result="`+result+`"}`, "")
	}
	kept, revoked := counter("kept"), counter("revoked")
	for _, row := range []struct {
		name      string
		mode      replica.Mode
		placement Policy
		keep      bool
	}{
		{"SW5", replica.SW(5), Policy{Kind: core.KindSW, K: 5}, true},
		{"ST2", replica.Static2(), Policy{}, true},
		{"SW5 under T1:2", replica.SW(5), Policy{Kind: core.KindT1, K: 2}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr, _ := buildTest(t, Binary(7), row.mode, row.placement)
			for _, k := range keys {
				tr.Stations[0].Server().Write(k, []byte(k+"#1"))
			}
			mc := attachTestMC(t, tr, 3)
			for _, to := range []int{4, 5} {
				// Warm: five reads of each key take every edge's window of
				// five to a read majority, and the MC's to all reads.
				for range 5 {
					for _, k := range keys {
						if _, err := mc.Client.Read(k); err != nil {
							t.Fatalf("read %s at station %d: %v", k, mc.Station(), err)
						}
					}
				}
				for _, k := range keys {
					check(t, fmt.Sprintf("copy of %s before the move to %d", k, to), mc.Client.HasCopy(k))
				}
				k0, r0 := kept.Load(), revoked.Load()
				a, b := transport.NewMemPair()
				done, err := mc.Handoff(to, a, b)
				if err != nil {
					t.Fatalf("Handoff(%d): %v", to, err)
				}
				// An in-memory link delivers inside Send: the resync is over.
				select {
				case <-done:
				default:
					t.Fatalf("the resync at %d is still open", to)
				}
				check(t, "warm arrival", mc.FinishHandoff(a))
				held := 0
				for _, k := range keys {
					if !mc.Client.HasCopy(k) {
						continue
					}
					held++
					for s := to; s != 0; s = tr.Topo.Parent[s] {
						check(t, fmt.Sprintf("copy of %s at station %d, on the path to the MC's", k, s),
							tr.Stations[s].Client().HasCopy(k))
					}
				}
				want := 0
				if row.keep {
					want = n
				}
				if held != want {
					t.Fatalf("after the move to %d the MC holds %d of %d copies, want %d", to, held, n, want)
				}
				if dk, dr := kept.Load()-k0, revoked.Load()-r0; dk != uint64(want) || dr != uint64(n-want) {
					t.Fatalf("move to %d: resync keys kept %d, revoked %d; want %d and %d", to, dk, dr, want, n-want)
				}
			}
		})
	}
}

// TestHandoffUnderWrites bounces an MC between two stations while the
// root writes concurrently — the handoff race ci runs under -race. Reads
// must stay per-key monotone across every move (floors make a warm
// arrival at a colder station serve upstream rather than step back).
func TestHandoffUnderWrites(t *testing.T) {
	tr, _ := buildTest(t, Binary(3), replica.Static2(), Policy{})
	mc := attachTestMC(t, tr, 1)

	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		tr.Stations[0].Server().Write(k, []byte(fmt.Sprintf("%s#1", k)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)]
			tr.Stations[0].Server().Write(k, nil)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	last := map[string]uint64{}
	station := 1
	for move := 0; move < 20; move++ {
		for _, k := range keys {
			it, err := mc.Client.Read(k)
			if err != nil {
				t.Fatalf("move %d: read %s: %v", move, k, err)
			}
			if it.Version < last[k] {
				t.Fatalf("move %d: read %s went back in time: v%d after v%d",
					move, k, it.Version, last[k])
			}
			last[k] = it.Version
		}
		station = 3 - station // 1 <-> 2
		a, b := transport.NewMemPair()
		done, err := mc.Handoff(station, a, b)
		if err != nil {
			t.Fatalf("move %d: Handoff: %v", move, err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("move %d: handoff resync did not complete", move)
		}
		if !mc.FinishHandoff(a) {
			t.Fatalf("move %d: unexpected cold arrival", move)
		}
	}
	close(stop)
	wg.Wait()
}

// tcpConnect is a LinkFactory over loopback TCP: every edge a pair of real
// TCPLinks, each with its own read loop and its own reused receive buffer —
// the conditions under which a handler that keeps borrowed bytes goes wrong.
func tcpConnect(t *testing.T) LinkFactory {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return func(child, parent int) (transport.Link, transport.Link, error) {
		accepted := make(chan *transport.TCPLink, 1)
		go func() {
			up, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- up
		}()
		down, err := transport.DialLink(ln.Addr(), nil, nil)
		if err != nil {
			return nil, nil, err
		}
		up, ok := <-accepted
		if !ok {
			down.Close()
			return nil, nil, fmt.Errorf("accept failed")
		}
		// No frame travels before the caller has attached both ends.
		up.Start(nil)
		t.Cleanup(func() {
			down.Close()
			up.Close()
		})
		return down, up, nil
	}
}

// TestWarmResyncOverTCPReshipsOwnPayloads is the regression for the
// borrowed-value retention in a relay's copy of a resync: an MC arrives
// at a cold station holding stale copies, so the warm resync must fetch
// every key from the root and re-ship it. Each upstream answer is lent out of the
// relay's parent-link receive buffer; kept uncopied until the last key
// resolved, every key came back with the bytes of whichever frame used
// the buffer last.
func TestWarmResyncOverTCPReshipsOwnPayloads(t *testing.T) {
	connect := tcpConnect(t)
	tr, err := Build(Binary(3), db.NewStore(), replica.Static2(), 1, Policy{}, connect)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	root := tr.Stations[0].Server()
	attach := func() (mcEnd, stEnd transport.Link) {
		mcEnd, stEnd, err := connect(-1, -1)
		if err != nil {
			t.Fatal(err)
		}
		return mcEnd, stEnd
	}
	mcEnd, stEnd := attach()
	mc, err := tr.AttachMC(1, mcEnd, stEnd)
	if err != nil {
		t.Fatalf("AttachMC: %v", err)
	}
	mc.Client.Timeout = 5 * time.Second

	keys := make([]string, 8)
	payload := func(k int, version uint64) []byte {
		// Sizes differ per key so frames do not tile the buffer evenly.
		return []byte(fmt.Sprintf("key-%d@v%d:%s", k, version, strings.Repeat(string(rune('a'+k)), 100+17*k)))
	}
	for k := range keys {
		keys[k] = fmt.Sprintf("k%d", k)
		if _, err := root.Write(keys[k], payload(k, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := mc.Client.Read(keys[k]); err != nil {
			t.Fatalf("read %s: %v", keys[k], err)
		}
	}
	// A read that allocates returns once the copy is installed.
	for _, key := range keys {
		check(t, "copy of "+key+" at the MC", mc.Client.HasCopy(key))
	}

	// Out of reach while the root moves every key on: the MC's copies are
	// stale when it lands on station 2, which holds none of them.
	mc.Client.Suspend()
	for k, key := range keys {
		if _, err := root.Write(key, payload(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	mcEnd, stEnd = attach()
	done, err := mc.Handoff(2, mcEnd, stEnd)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handoff resync did not complete")
	}
	if !mc.FinishHandoff(mcEnd) {
		t.Fatal("handoff fell back to cold")
	}
	for k, key := range keys {
		it, err := mc.Client.Read(key)
		if err != nil {
			t.Fatalf("read %s after handoff: %v", key, err)
		}
		if want := payload(k, 2); it.Version != 2 || !bytes.Equal(it.Value, want) {
			t.Fatalf("%s after handoff = v%d %.24q, want v2 %.24q", key, it.Version, it.Value, want)
		}
	}
}
