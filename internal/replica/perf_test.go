package replica

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
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

// echoLink answers every ReadReq on the spot with a non-allocating
// ReadResp for version 1 of value, encoded into one reused buffer: a
// server that costs the client nothing, so a client pin counts only the
// client.
type echoLink struct {
	h        transport.Handler
	value    []byte
	allocate bool // answer with an allocating response
	buf      []byte
}

func (l *echoLink) Send(frame []byte) error {
	m, err := wire.DecodeBorrowed(frame)
	if err != nil || m.Kind != wire.KindReadReq {
		return err
	}
	resp := wire.Message{Kind: wire.KindReadResp, Key: m.Key, Value: l.value, Version: 1, Allocate: l.allocate}
	if l.buf, err = wire.AppendEncode(l.buf[:0], resp); err != nil {
		return err
	}
	l.h(l.buf)
	return nil
}
func (l *echoLink) SetHandler(h transport.Handler) { l.h = h }
func (l *echoLink) Close() error                   { return nil }

// TestAllocatingReadRespAllocs pins the allocating miss at the MC: the
// response installs the cache's copy and the waiting reader is handed
// that copy, lent, rather than a second clone of the frame's value. The
// cycle measured is a miss (the allocating answer), a local hit that
// lends the copy again, and a drop; the lent copy is why the next install
// cannot reuse the buffer, so the cycle's one allocation is the new copy.
func TestAllocatingReadRespAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the read's waiter is pooled, and the race detector drops pooled items")
	}
	cli, err := NewClient(&echoLink{value: []byte("payload-123456"), allocate: true}, Static2())
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		miss, err := cli.Read("x")
		if err != nil || string(miss.Value) != "payload-123456" {
			t.Fatalf("miss = %+v, %v", miss, err)
		}
		hit, err := cli.Read("x")
		if err != nil || &hit.Value[0] != &miss.Value[0] {
			t.Fatalf("the reader of the allocating answer was not handed the cache's copy (%v)", err)
		}
		if _, _, live := cli.cache.Drop("x", false); !live {
			t.Fatal("the allocating answer installed no copy")
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // fill the waiter pool and the encode buffers
	}
	if got := testing.AllocsPerRun(500, cycle); got != 1 {
		t.Errorf("an allocating miss cost the MC %.1f allocations, want 1 (the cache's copy)", got)
	}
}

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
// receive, lastSeen refresh under the shard token, borrowed decode, the
// store's value copied into a pooled buffer, protocol state machine,
// pooled response encode — at zero allocations per served read, at both
// one shard and many.
func TestServerReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the value copy and the response encode are pooled, and the race detector drops pooled items")
	}
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
// sessions spread over 8 shards, a steady-state Write allocates nothing —
// the store copies the value over the key's resident buffer (the reads
// that subscribed the sessions copied the value out rather than borrowing
// it), and the shard walk, the per-shard classification scratch, the
// shared pooled encode, and every send are allocation-free.
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
	if allocs != 0 {
		t.Fatalf("fan-out write allocated %.1f times per run, want 0", allocs)
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

// BenchmarkFanOutWorkingSet is BenchmarkFanOutHolders with a working set:
// 64 ST2 holders each hold 256 keys of 1 KiB, and each Write goes to a
// key drawn from a seeded sequence, so the MC's record for it is rarely
// still in a CPU cache — the cost a single hot key hides. It reports
// ns/holder next to ns/op and allocs/op.
func BenchmarkFanOutWorkingSet(b *testing.B) {
	const holders, nkeys = 64, 256
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 1024)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if _, err := srv.Write(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	clients := make([]*Client, holders)
	for i := range clients {
		mcEnd, scEnd := transport.NewMemPair()
		if clients[i], err = NewClient(mcEnd, Static2()); err != nil {
			b.Fatal(err)
		}
		srv.Attach(scEnd)
		for _, k := range keys {
			// Static-2 allocates on first contact.
			if _, err := clients[i].Read(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]int, 1<<12)
	for i := range order {
		order[i] = rng.Intn(nkeys)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		value[0] = byte(i)
		if _, err := srv.Write(keys[order[i%len(order)]], value); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/holders, "ns/holder")
	last := keys[order[(b.N-1)%len(order)]]
	want, _ := srv.Store().Get(last)
	for i, cli := range clients {
		if it, ok := cli.Cache().Peek(last); !ok || it.Version != want.Version {
			b.Fatalf("holder %d ended at %+v, want version %d", i, it.Version, want.Version)
		}
	}
}

// TestWritePropApplyAllocs pins the MC's half of a propagated write: with
// apply and drop handlers registered, applying a WriteProp to a held copy
// nobody has read since allocates nothing — the record is found with one
// probe, the value lands over the resident buffer, and the handler gets
// the cache's own key instead of a clone.
func TestWritePropApplyAllocs(t *testing.T) {
	cli, err := NewClient(nullLink{}, Static2())
	if err != nil {
		t.Fatal(err)
	}
	var applied uint64
	drops := 0
	cli.SetApplyHandler(func(it db.Item) { applied = it.Version })
	cli.SetDropHandler(func(string) { drops++ })
	value := make([]byte, 1024)
	resp, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadResp, Key: "k", Value: value, Version: 1, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	cli.onFrame(resp)
	version := uint64(1)
	var frame []byte
	write := func() {
		version++
		value[0] = byte(version)
		frame, _ = wire.AppendEncode(frame[:0], wire.Message{Kind: wire.KindWriteProp, Key: "k", Value: value, Version: version})
		cli.onFrame(frame)
	}
	write() // size the frame buffer
	if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
		t.Errorf("applying a WriteProp allocated %.1f times per run, want 0", allocs)
	}
	if it, ok := cli.Cache().Peek("k"); !ok || it.Version != version || it.Value[0] != value[0] || applied != version || drops != 0 {
		t.Fatalf("after v%d: cache %+v held=%v, handler saw v%d, %d drops", version, it.Version, ok, applied, drops)
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
// each side. At the SC it is the itemState — window embedded by value and
// the key-index slot number in its padding — and the cloned key the map
// retains, two objects. (Before the window was a value it was four: item,
// window struct, bit slice, key.) The server sessions measured are each
// key's 17th to 32nd holder, so the key's slot list — shared by every
// session holding it — grows once in those sixteen first touches; like map
// growth, that amortizes to well under one allocation per insert.
//
// At the MC the cache record is the only per-key state: an allocating
// response for a new key costs the record, its key and its value, three
// objects (six when the client kept its own state record and key beside
// the cache's and cloned the key again for the tracer), and a read miss
// that does not allocate a copy — every ST1 read — creates no record at
// all: its one allocation is the value handed to the reader.
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
	frames := make([][]byte, len(keys))
	for i, k := range keys {
		frames[i], err = wire.AppendEncode(nil, wire.Message{
			Kind: wire.KindReadResp, Key: k, Value: []byte("value"), Version: 1,
			Allocate: true, Window: core.NewWindow(9, sched.Read),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		cli.onFrame(frames[next])
		next++
	})
	if allocs > 3 {
		t.Errorf("client allocation of a new key cost %.0f objects, want at most 3 (record, key, value)", allocs)
	}
	if n := cli.Cache().Len(); n != len(keys) {
		t.Fatalf("client holds %d copies, want %d", n, len(keys))
	}

	if !raceEnabled { // the read's waiter is pooled
		echo := &echoLink{value: []byte("value")}
		st1, err := NewClient(echo, Static1())
		if err != nil {
			t.Fatal(err)
		}
		read := func(key string) {
			if it, err := st1.Read(key); err != nil || it.Version != 1 {
				t.Fatalf("ST1 read %s = %+v, %v", key, it, err)
			}
		}
		for i := 0; i < 8; i++ {
			read("warm") // fill the waiter pool and the encode buffers
		}
		next = 0
		allocs = testing.AllocsPerRun(runs, func() {
			read(keys[next])
			next++
		})
		if allocs > 1 {
			t.Errorf("ST1 read miss allocated %.0f objects, want at most 1 (the value handed to the reader)", allocs)
		}
		if c := st1.Cache(); c.Len() != 0 || c.ArchiveLen() != 0 || c.Stats().Misses != len(keys)+8 {
			t.Errorf("ST1 client left %d records and %d archived, %d misses; want none and %d misses",
				c.Len(), c.ArchiveLen(), c.Stats().Misses, len(keys)+8)
		}
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
