package replica

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// captureLink is a Link stub that records the identity (backing-array
// pointer) and a copy of every frame it is handed, so tests can prove
// frames are shared or not across sends without a real transport.
type captureLink struct {
	mu     sync.Mutex
	ptrs   []*byte
	frames [][]byte
}

func (l *captureLink) Send(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(frame) > 0 {
		l.ptrs = append(l.ptrs, &frame[0])
	} else {
		l.ptrs = append(l.ptrs, nil)
	}
	l.frames = append(l.frames, append([]byte(nil), frame...))
	return nil
}
func (l *captureLink) SetHandler(transport.Handler) {}
func (l *captureLink) Close() error                 { return nil }

// nullLink discards frames; the cheapest possible transport, for isolating
// the replica send path's own cost.
type nullLink struct{}

func (nullLink) Send([]byte) error            { return nil }
func (nullLink) SetHandler(transport.Handler) {}
func (nullLink) Close() error                 { return nil }

// TestServerSendPathAllocs pins the SC steady-state send machinery —
// pooled encode, meter, link hand-off, buffer release — at zero
// allocations per message.
func TestServerSendPathAllocs(t *testing.T) {
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	sess := srv.Attach(nullLink{})
	msg := wire.Message{Kind: wire.KindWriteProp, Key: "hot", Value: []byte("payload-123456"), Version: 7}
	sess.sendData(msg) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		sess.sendData(msg)
	})
	if allocs != 0 {
		t.Fatalf("sendData allocated %.1f times per run, want 0", allocs)
	}
}

// TestWriteFanOutSharesOneEncode proves the SC propagation batching: one
// Write to a key with k subscribed clients hands every link the SAME
// bytes — one encode, k sends — instead of k independent encodes.
func TestWriteFanOutSharesOneEncode(t *testing.T) {
	const k = 16
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	links := make([]*captureLink, k)
	sessions := make([]*Session, k)
	req, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write("hot", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i := range links {
		links[i] = &captureLink{}
		sessions[i] = srv.Attach(links[i])
		// A read subscribes the session (static-2 allocates on first
		// contact); the response frame lands in the capture link.
		sessions[i].onFrame(req)
	}
	for _, l := range links {
		l.mu.Lock()
		l.ptrs, l.frames = nil, nil
		l.mu.Unlock()
	}

	if _, err := srv.Write("hot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var shared *byte
	for i, l := range links {
		l.mu.Lock()
		if len(l.frames) != 1 {
			t.Fatalf("session %d got %d frames, want 1", i, len(l.frames))
		}
		m, err := wire.DecodeBorrowed(l.frames[0])
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if m.Kind != wire.KindWriteProp || m.Key != "hot" || string(m.Value) != "v1" {
			t.Fatalf("session %d got %+v", i, m)
		}
		if shared == nil {
			shared = l.ptrs[0]
		} else if l.ptrs[0] != shared {
			t.Fatalf("session %d received a separately encoded frame — fan-out did not share bytes", i)
		}
		l.mu.Unlock()
	}
}

// TestServerReadPathAllocs pins the whole per-shard read hot path — frame
// receive, lastSeen refresh under the shard token, borrowed decode, store
// get, protocol state machine, pooled response encode — at zero
// allocations per served read, at both one shard and many.
func TestServerReadPathAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		srv, err := NewServerShards(db.NewStore(), Static2(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Write("hot", []byte("payload-123456")); err != nil {
			t.Fatal(err)
		}
		sess := srv.Attach(nullLink{})
		req, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "hot"})
		if err != nil {
			t.Fatal(err)
		}
		sess.onFrame(req) // warm: allocates the item state and subscribes
		allocs := testing.AllocsPerRun(200, func() {
			sess.onFrame(req)
		})
		if allocs != 0 {
			t.Fatalf("shards=%d: read path allocated %.1f times per run, want 0", shards, allocs)
		}
	}
}

// TestWriteFanOutAllocs pins the sharded write fan-out: with k subscribed
// sessions spread over 8 shards, a steady-state Write costs exactly the
// store's one defensive value copy — the shard walk, the per-shard
// classification scratch, the shared pooled encode, and every send are
// allocation-free.
func TestWriteFanOutAllocs(t *testing.T) {
	const k = 16
	srv, err := NewServerShards(db.NewStore(), SW(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write("hot", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "hot"})
	for i := 0; i < k; i++ {
		sess := srv.Attach(nullLink{})
		// Two reads reach the SW3 read majority: the session allocates a
		// copy and stays subscribed (the null link never sends the
		// deallocating DeleteReq back), so every later Write propagates.
		sess.onFrame(req)
		sess.onFrame(req)
	}
	payload := []byte("fan-out-payload")
	if _, err := srv.Write("hot", payload); err != nil { // warm scratch + pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := srv.Write("hot", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("fan-out write allocated %.1f times per run, want <=1 (the store's value copy)", allocs)
	}
}

// BenchmarkShardReadPath measures one served read end to end on the
// sharded core (null transport): decode, token, state machine, encode.
func BenchmarkShardReadPath(b *testing.B) {
	srv, err := NewServerShards(db.NewStore(), Static2(), 8)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Write("hot", []byte("payload-123456")); err != nil {
		b.Fatal(err)
	}
	sess := srv.Attach(nullLink{})
	req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "hot"})
	sess.onFrame(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.onFrame(req)
	}
}

// BenchmarkShardWriteFanOut measures one Write propagating to 16
// subscribers spread across 8 shards: one shared encode, 16 sends.
func BenchmarkShardWriteFanOut(b *testing.B) {
	srv, err := NewServerShards(db.NewStore(), SW(3), 8)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Write("hot", []byte("v0")); err != nil {
		b.Fatal(err)
	}
	req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "hot"})
	for i := 0; i < 16; i++ {
		sess := srv.Attach(nullLink{})
		sess.onFrame(req)
		sess.onFrame(req)
	}
	payload := []byte("fan-out-payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Write("hot", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanOutHolders is the slope of a propagated write in its holder
// count: ST2, a 1 KiB value, every holder a real Client on an in-memory
// link, so each Write runs the key-index walk, the shared encode, and at
// every MC the borrowed decode, the state probe and the cache update. It
// reports the per-holder share next to ns/op and allocs/op; a flat
// ns/holder across the three sizes means the cost is the holders' own.
func BenchmarkFanOutHolders(b *testing.B) {
	for _, holders := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprint(holders), func(b *testing.B) {
			srv, err := NewServer(db.NewStore(), Static2())
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 1024)
			if _, err := srv.Write("hot", value); err != nil {
				b.Fatal(err)
			}
			clients := make([]*Client, holders)
			for i := range clients {
				mcEnd, scEnd := transport.NewMemPair()
				if clients[i], err = NewClient(mcEnd, Static2()); err != nil {
					b.Fatal(err)
				}
				srv.Attach(scEnd)
				// Static-2 allocates on first contact.
				if _, err := clients[i].Read("hot"); err != nil {
					b.Fatal(err)
				}
			}
			var last db.Item
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				value[0] = byte(i)
				if last, err = srv.Write("hot", value); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(holders), "ns/holder")
			for i, cli := range clients {
				if it, ok := cli.Cache().Peek("hot"); !ok || it.Version != last.Version || it.Value[0] != value[0] {
					b.Fatalf("holder %d ended at %+v, want version %d", i, it.Version, last.Version)
				}
			}
		})
	}
}

// TestWriteFanOutMetersPerSession checks that sharing the encoded frame
// does not merge the accounting: each subscribed session still meters its
// own connection and data message per propagated write.
func TestWriteFanOutMetersPerSession(t *testing.T) {
	const k = 4
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: "x"})
	srv.Write("x", []byte("v0"))
	sessions := make([]*Session, k)
	for i := range sessions {
		sessions[i] = srv.Attach(&captureLink{})
		sessions[i].onFrame(req)
	}
	before := make([]MeterSnapshot, k)
	for i, s := range sessions {
		before[i] = s.Meter().Snapshot()
	}
	srv.Write("x", []byte("v1"))
	for i, s := range sessions {
		d := s.Meter().Snapshot()
		if d.DataMsgs != before[i].DataMsgs+1 || d.Connections != before[i].Connections+1 {
			t.Fatalf("session %d: %+v -> %+v, want one data message and one connection", i, before[i], d)
		}
	}
}

// TestFirstTouchAllocations pins what one (session, key) costs the heap on
// each side: the itemState — window embedded by value, and on the server
// the key-index slot number in its padding — and the cloned key the map
// retains, two objects. (Before the window was a value it was four: item,
// window struct, bit slice, key.) The server sessions measured are each
// key's 17th to 32nd holder, so the key's slot list — shared by every
// session holding it — grows once in those sixteen first touches; like map
// growth, that amortizes to well under one allocation per insert.
func TestFirstTouchAllocations(t *testing.T) {
	if got := unsafe.Sizeof(itemState{}); got != 32 {
		t.Errorf("itemState is %d bytes, want 32: the index slot number must fit the padding", got)
	}
	const runs = 1000
	keys := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	mode := SW(9)

	cli, err := NewClient(nullLink{}, mode)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		cli.mu.Lock()
		cli.state(keys[next])
		cli.mu.Unlock()
		next++
	})
	if allocs > 2 {
		t.Errorf("client first touch allocated %.0f objects per key, want at most 2", allocs)
	}

	srv, err := NewServerShards(db.NewStore(), mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	const holders, nkeys = 16, 64
	sessions := make([]*Session, 2*holders)
	for i := range sessions {
		sessions[i] = srv.Attach(nullLink{})
	}
	sh := sessions[0].shard
	sh.enter()
	for _, sess := range sessions[:holders] {
		for _, k := range keys[:nkeys] {
			sess.state(k)
		}
	}
	sh.exit()
	next = 0
	allocs = testing.AllocsPerRun(holders*nkeys-1, func() {
		sh.enter()
		sessions[holders+next/nkeys].state(keys[next%nkeys])
		sh.exit()
		next++
	})
	if allocs > 2 {
		t.Errorf("server first touch allocated %.0f objects per (session, key), want at most 2", allocs)
	}
}
