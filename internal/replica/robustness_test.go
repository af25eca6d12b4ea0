package replica

import (
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// rawPair exposes both link ends so tests can inject raw frames.
func rawPair(t *testing.T, mode Mode) (*Client, *Server, transport.Link, transport.Link) {
	t.Helper()
	a, b := transport.NewMemPair()
	srv, err := NewServer(db.NewStore(), mode)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(a)
	cli, err := NewClient(b, mode)
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv, a, b
}

// TestServerIgnoresGarbageFrames: junk from a client must not crash the
// server or corrupt its state.
func TestServerIgnoresGarbageFrames(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	for _, frame := range [][]byte{
		nil, {}, {0xff}, {0, 0, 0}, {42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	} {
		if err := clientLink.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	// The protocol still works afterwards.
	it, err := cli.Read("x")
	if err != nil || string(it.Value) != "v" {
		t.Fatalf("read after garbage: %v %q", err, it.Value)
	}
}

// TestClientIgnoresGarbageAndWrongDirectionFrames: junk and misdirected
// kinds from the server side must be dropped.
func TestClientIgnoresGarbageAndWrongDirectionFrames(t *testing.T) {
	cli, srv, serverLink, _ := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	// Garbage.
	serverLink.Send([]byte{0xde, 0xad})
	// A ReadReq is client-to-server only; the client must ignore it.
	frame, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	// An unsolicited WriteProp for an uncached key is a stale race: the
	// client must absorb it without allocating.
	frame, err = wire.AppendEncode(nil, wire.Message{Kind: wire.KindWriteProp, Key: "x", Value: []byte("zz"), Version: 99})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	if cli.HasCopy("x") {
		t.Fatal("stale propagation allocated a copy")
	}
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after junk: %v %q", err, it.Value)
	}
}

// TestClientIgnoresUnsolicitedReadResp: a response with no waiter must not
// panic or wedge the pending queue.
func TestClientIgnoresUnsolicitedReadResp(t *testing.T) {
	cli, srv, serverLink, _ := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadResp, Key: "x", Value: []byte("spoof"), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	serverLink.Send(frame)
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after unsolicited response: %v %q", err, it.Value)
	}
}

// TestServerIgnoresStaleDeleteReq: a delete-request for a key the client
// does not hold must be a no-op.
func TestServerIgnoresStaleDeleteReq(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindDeleteReq, Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	clientLink.Send(frame)
	// Normal operation continues; allocation still works.
	cli.Read("x")
	cli.Read("x")
	if !cli.HasCopy("x") {
		t.Fatal("allocation broken after stale delete-request")
	}
}

// TestServerIgnoresBatchRespFromClient: a client must not be able to
// confuse the server with a response-kind batch.
func TestServerIgnoresBatchRespFromClient(t *testing.T) {
	cli, srv, _, clientLink := rawPair(t, SW(3))
	srv.Write("x", []byte("v"))
	frame, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadResp,
		Entries: []wire.Entry{{Key: "x", Value: []byte("spoof"), Version: 7, Allocate: true}}})
	if err != nil {
		t.Fatal(err)
	}
	clientLink.Send(frame)
	if it, err := cli.Read("x"); err != nil || string(it.Value) != "v" {
		t.Fatalf("read after spoofed batch: %v %q", err, it.Value)
	}
}
