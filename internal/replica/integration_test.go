package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/workload"
)

// startTCPServer runs a server accepting on an ephemeral port; it returns
// the address and a stop function.
func startTCPServer(t *testing.T, srv *Server) (string, func()) {
	addr, stop, _ := startTCPServerSessions(t, srv)
	return addr, stop
}

// startTCPServerSessions is startTCPServer that also hands out the
// session of each accepted connection, for tests that must observe the
// server's side of a key.
func startTCPServerSessions(t *testing.T, srv *Server) (string, func(), <-chan *Session) {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every connection one test opens; the send below never
	// blocks the accept loop.
	sessions := make(chan *Session, 64)
	go func() {
		for {
			link, err := ln.Accept()
			if err != nil {
				return
			}
			sess := srv.Attach(link)
			link.Start(nil)
			select {
			case sessions <- sess:
			default: // nobody is collecting
			}
		}
	}()
	return ln.Addr(), func() { ln.Close() }, sessions
}

// TestTCPEndToEnd runs the full protocol over real TCP: allocation,
// propagation, deallocation, and value freshness.
func TestTCPEndToEnd(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startTCPServer(t, srv)
	defer stop()

	link, err := transport.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	cli, err := NewClient(link, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	cli.Timeout = 5 * time.Second

	if _, err := srv.Write("x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	it, err := cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v1" {
		t.Fatalf("read %q", it.Value)
	}
	// Second read allocates.
	if _, err := cli.Read("x"); err != nil {
		t.Fatal(err)
	}
	if !cli.HasCopy("x") {
		t.Fatal("no copy after read majority")
	}
	// A write must propagate over TCP; poll for the asynchronous update.
	if _, err := srv.Write("x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := cli.Cache().Peek("x")
		return ok && string(got.Value) == "v2"
	}, "propagated write")
	// A second write deallocates; the server must stop propagating.
	if _, err := srv.Write("x", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !cli.HasCopy("x") }, "deallocation")
	// Reads still see fresh values remotely.
	it, err = cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v3" {
		t.Fatalf("read after dealloc: %q", it.Value)
	}
}

// TestTCPSequentialMatchesSimulator repeats the E13 equivalence over a
// real socket. Writes are asynchronous over TCP, so the driver waits for
// the write to take effect at the client before issuing the next request,
// preserving the paper's serialized semantics.
func TestTCPSequentialMatchesSimulator(t *testing.T) {
	const k = 3
	store := db.NewStore()
	srv, err := NewServer(store, SW(k))
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, sessions := startTCPServerSessions(t, srv)
	defer stop()

	link, err := transport.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	cli, err := NewClient(link, SW(k))
	if err != nil {
		t.Fatal(err)
	}
	cli.Timeout = 5 * time.Second
	sess := <-sessions

	srv.Write("x", []byte("seed"))
	rng := stats.NewRNG(4242)
	seq := workload.Bernoulli(rng, 0.5, 400)
	policy := core.NewSW(k)
	version := uint64(1)
	for i, op := range seq {
		st := policy.Apply(op)
		if op == sched.Read {
			if _, err := cli.Read("x"); err != nil {
				t.Fatal(err)
			}
		} else {
			version++
			if _, err := srv.Write("x", []byte(fmt.Sprintf("v%d", version))); err != nil {
				t.Fatal(err)
			}
			if st.HadCopy {
				// Wait until the propagation (or deallocation) has fully
				// landed so the next request observes serialized state.
				wantCopy := st.HasCopy
				v := version
				waitFor(t, func() bool {
					if !wantCopy {
						// Settled means both sides: the client dropped the
						// copy and its delete-request, window aboard, has
						// reached the server. A write issued in between
						// would still be propagated and would never enter
						// the window the server is about to adopt.
						scCopy, _ := implSCState(sess, SW(k), "x")
						return !cli.HasCopy("x") && !scCopy
					}
					got, ok := cli.Cache().Peek("x")
					return ok && got.Version == v
				}, fmt.Sprintf("write %d to settle", i))
			}
		}
		if cli.HasCopy("x") != st.HasCopy {
			t.Fatalf("op %d: protocol copy %v vs policy %v", i, cli.HasCopy("x"), st.HasCopy)
		}
	}

	// Traffic must match the simulator exactly, as over the in-memory
	// transport.
	res := sim.Replay(core.NewSW(k), cost.NewMessage(0.5), seq, 0)
	// The server side meter lives in the session created by Attach; we
	// reach it through the ledger comparison instead: reconstruct totals
	// from the client meter plus expected server sends.
	mc := cli.Meter().Snapshot()
	if mc.ControlMsgs != res.Ledger.ControlMessages {
		// The client sends ReadReq and DeleteReq; under SW(k>1) the
		// server sends no control messages, so the totals must agree.
		t.Fatalf("client control %d vs sim %d", mc.ControlMsgs, res.Ledger.ControlMessages)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestMultiClientFleet attaches several clients with different read
// behaviours to one server: each (client, key) pair gets independent
// window state, writes propagate only to subscribed clients, and each
// client's traffic matches a per-client simulation.
func TestMultiClientFleet(t *testing.T) {
	const k = 3
	store := db.NewStore()
	srv, err := NewServer(store, SW(k))
	if err != nil {
		t.Fatal(err)
	}
	srv.Write("x", []byte("seed"))

	// Client 0 reads often (should end up holding a copy most of the
	// time); client 1 never reads (never holds one).
	type clientState struct {
		cli    *Client
		meter  *Meter
		policy *core.SW
	}
	clients := make([]*clientState, 2)
	for i := range clients {
		a, b := transport.NewMemPair()
		meter := srv.Attach(a).Meter()
		cli, err := NewClient(b, SW(k))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &clientState{cli: cli, meter: meter, policy: core.NewSW(k)}
	}

	rng := stats.NewRNG(7)
	var seqs [2]sched.Schedule
	for i := 0; i < 600; i++ {
		// Global arrival process: client-0 read, or a server write
		// (client-1 issues no reads at all).
		if rng.Bernoulli(0.5) {
			if _, err := clients[0].cli.Read("x"); err != nil {
				t.Fatal(err)
			}
			clients[0].policy.Apply(sched.Read)
			seqs[0] = append(seqs[0], sched.Read)
		} else {
			if _, err := srv.Write("x", []byte("v")); err != nil {
				t.Fatal(err)
			}
			// A write is relevant to every client.
			for c := range clients {
				clients[c].policy.Apply(sched.Write)
				seqs[c] = append(seqs[c], sched.Write)
			}
		}
		for c, cs := range clients {
			if cs.cli.HasCopy("x") != cs.policy.HasCopy() {
				t.Fatalf("client %d diverged from its reference policy", c)
			}
		}
	}

	// Client 1 never read, so it must have no copy and zero traffic.
	if clients[1].cli.HasCopy("x") {
		t.Fatal("read-less client holds a copy")
	}
	total1 := clients[1].meter.Snapshot().Add(clients[1].cli.Meter().Snapshot())
	if total1.DataMsgs != 0 || total1.ControlMsgs != 0 {
		t.Fatalf("read-less client caused traffic: %+v", total1)
	}

	// Client 0's combined traffic matches a solo simulation of its own
	// relevant request sequence.
	res := sim.Replay(core.NewSW(k), cost.NewMessage(0.5), seqs[0], 0)
	total0 := clients[0].meter.Snapshot().Add(clients[0].cli.Meter().Snapshot())
	if total0.DataMsgs != res.Ledger.DataMessages || total0.ControlMsgs != res.Ledger.ControlMessages {
		t.Fatalf("client 0 traffic %+v vs sim data=%d control=%d",
			total0, res.Ledger.DataMessages, res.Ledger.ControlMessages)
	}
}

// TestConcurrentClientsRace hammers one server from several goroutine
// clients while the server writes, for the race detector.
func TestConcurrentClientsRace(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	srv.Write("x", []byte("seed"))

	const clients = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		a, b := transport.NewMemPair()
		srv.Attach(a)
		cli, err := NewClient(b, SW(3))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cli.Read("x"); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if _, err := srv.Write("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
