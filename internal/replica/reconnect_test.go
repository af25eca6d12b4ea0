package replica

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
)

func TestDisconnectDropsCopiesAndFailsReads(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("v1"))
	cli.Read("x")
	cli.Read("x") // allocate
	if !cli.HasCopy("x") {
		t.Fatal("setup: no copy")
	}

	cli.Disconnect()
	if !cli.Offline() {
		t.Fatal("client should report offline")
	}
	if cli.HasCopy("x") {
		t.Fatal("cached copy survived disconnect; it could go stale unseen")
	}
	if _, err := cli.Read("x"); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline read returned %v, want ErrOffline", err)
	}
}

func TestDetachStopsPropagation(t *testing.T) {
	a, b := transport.NewMemPair()
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.Attach(a)
	cli, err := NewClient(b, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	srv.Write("x", []byte("v1"))
	cli.Read("x")
	cli.Read("x") // allocate: server now propagates writes
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d", srv.Sessions())
	}

	before := sess.Meter().Snapshot()
	sess.Detach()
	if srv.Sessions() != 0 {
		t.Fatalf("sessions after detach = %d", srv.Sessions())
	}
	// Writes after detach must cause no traffic toward the gone client.
	for i := 0; i < 5; i++ {
		srv.Write("x", []byte{byte(i)})
	}
	if after := sess.Meter().Snapshot(); after != before {
		t.Fatalf("detached session still metered traffic: %+v -> %+v", before, after)
	}
	sess.Detach() // idempotent
}

func TestReattachLifecycle(t *testing.T) {
	store := db.NewStore()
	srv, err := NewServer(store, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.NewMemPair()
	sess := srv.Attach(a)
	cli, err := NewClient(b, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	srv.Write("x", []byte("v1"))
	cli.Read("x")
	cli.Read("x")
	if !cli.HasCopy("x") {
		t.Fatal("setup: no copy")
	}

	// Roam away: both sides tear down.
	cli.Disconnect()
	sess.Detach()
	// The database moves on while the MC is away.
	srv.Write("x", []byte("v9"))

	// Roam back on a fresh link.
	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	cli.Reattach(b2)
	if cli.Offline() {
		t.Fatal("client still offline after reattach")
	}
	// First read is remote (no copy survived) and sees the fresh value —
	// no stale read is possible.
	it, err := cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v9" {
		t.Fatalf("read after reattach: %q, want v9", it.Value)
	}
	if cli.HasCopy("x") {
		t.Fatal("copy allocated on first post-reattach read; window should restart all-writes")
	}
	// The protocol works normally again: read majority re-allocates.
	cli.Read("x")
	if !cli.HasCopy("x") {
		t.Fatal("no copy after post-reattach read majority")
	}
	// And propagation works on the new session.
	srv.Write("x", []byte("v10"))
	got, _ := cli.Cache().Peek("x")
	if string(got.Value) != "v10" {
		t.Fatalf("propagation after reattach: %q", got.Value)
	}
}

func TestDisconnectUnblocksPendingRead(t *testing.T) {
	// A read waiting on a server that never answers must be released by
	// Disconnect with ErrOffline.
	blackhole, b := transport.NewMemPair()
	blackhole.SetHandler(func([]byte) {}) // server side swallows requests
	cli, err := NewClient(b, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cli.Read("x")
		done <- err
	}()
	for i := 0; !cli.AwaitingRead("x"); i++ {
		if i == 1_000_000 {
			t.Fatal("the read never parked")
		}
		runtime.Gosched()
	}
	cli.Disconnect()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOffline) {
			t.Fatalf("pending read returned %v, want ErrOffline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending read never released")
	}
}

func TestTCPLinkCloseDetaches(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			link, err := ln.Accept()
			if err != nil {
				return
			}
			sess := srv.Attach(link)
			link.Start(func(error) { sess.Detach() })
		}
	}()

	link, err := transport.Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(link, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	cli.Timeout = 5 * time.Second
	srv.Write("x", []byte("v"))
	if _, err := cli.Read("x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Sessions() == 1 }, "session attach")

	// Dropping the TCP connection must detach the session on the server.
	link.Close()
	waitFor(t, func() bool { return srv.Sessions() == 0 }, "session detach on link close")
}
