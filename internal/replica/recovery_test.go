package replica

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// fakeClock is a manually advanced time source shared by tests that pin
// session ages and cache staleness.
type fakeClock struct {
	mu  sync.Mutex
	cur time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{cur: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.cur = f.cur.Add(d)
	f.mu.Unlock()
}

// allocate drives key to a read majority so the MC holds a copy.
func allocate(t *testing.T, cli *Client, srv *Server, key string) {
	t.Helper()
	if _, err := srv.Write(key, []byte(key+"#1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && !cli.HasCopy(key); i++ {
		if _, err := cli.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	if !cli.HasCopy(key) {
		t.Fatalf("setup: no copy of %s after read majority", key)
	}
}

func TestSuspendResumeResyncWarm(t *testing.T) {
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
	allocate(t, cli, srv, "x")
	allocate(t, cli, srv, "y")

	// A link blip: warm offline, server notices the close and detaches.
	cli.Suspend()
	if !cli.Offline() {
		t.Fatal("client should report offline after suspend")
	}
	if !cli.HasCopy("x") || !cli.HasCopy("y") {
		t.Fatal("suspend dropped warm copies")
	}
	if _, err := cli.Read("x"); !errors.Is(err, ErrOffline) {
		t.Fatalf("suspended read returned %v, want ErrOffline", err)
	}
	sess.Detach()

	// The database moves on for x only while the client is away.
	if _, err := srv.Write("x", []byte("x#2")); err != nil {
		t.Fatal(err)
	}

	revalBefore := cli.Cache().Stats().Revalidations
	connBefore := cli.Meter().Snapshot().Connections

	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	done, err := cli.ResumeResync(b2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("resync never completed")
	}
	if cli.Offline() {
		t.Fatal("client still offline after resync")
	}
	// One reattachment connection reconciled everything.
	if got := cli.Meter().Snapshot().Connections; got != connBefore+1 {
		t.Fatalf("resync used %d connections, want 1", got-connBefore)
	}
	// x was stale: re-shipped. y was current: revalidated without payload.
	if it, _ := cli.Cache().Peek("x"); string(it.Value) != "x#2" {
		t.Fatalf("x after resync = %q, want x#2", it.Value)
	}
	if got := cli.Cache().Stats().Revalidations; got != revalBefore+1 {
		t.Fatalf("revalidations = %d, want %d", got, revalBefore+1)
	}
	// Both copies survive warm: the next reads are local, no new traffic.
	connAfter := cli.Meter().Snapshot().Connections
	for _, key := range []string{"x", "y"} {
		it, err := cli.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		if it.Version == 0 {
			t.Fatalf("read %s returned zero item", key)
		}
	}
	if got := cli.Meter().Snapshot().Connections; got != connAfter {
		t.Fatal("post-resync reads went remote; warm copies were lost")
	}
	// And propagation flows on the new session.
	if _, err := srv.Write("y", []byte("y#2")); err != nil {
		t.Fatal(err)
	}
	if it, _ := cli.Cache().Peek("y"); string(it.Value) != "y#2" {
		t.Fatalf("propagation after resync: y = %q", it.Value)
	}
}

func TestResyncMissedWritesDeallocate(t *testing.T) {
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
	allocate(t, cli, srv, "x")

	cli.Suspend()
	sess.Detach()
	// The key turns write-hot while the client is away: three missed
	// writes fill the K=3 window.
	for i := 2; i <= 4; i++ {
		if _, err := srv.Write("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	a2, b2 := transport.NewMemPair()
	sess2 := srv.Attach(a2)
	done, err := cli.ResumeResync(b2)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	// The missed writes made the window write-majority: the copy is
	// deallocated and the SC told, so further writes cost nothing.
	if cli.HasCopy("x") {
		t.Fatal("write-hot copy survived resync; it would cost a data message per write")
	}
	before := sess2.Meter().Snapshot()
	if _, err := srv.Write("x", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if after := sess2.Meter().Snapshot(); after != before {
		t.Fatalf("write after resync deallocation still propagated: %+v -> %+v", before, after)
	}
}

func TestResyncPreservesWindowOnLightMisses(t *testing.T) {
	// The sub-TTL blip of the acceptance criteria: one missed write must
	// not cost the learned read-heavy window or the warm copy.
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
	allocate(t, cli, srv, "x")
	// Local reads make the window solidly read-majority.
	for i := 0; i < 3; i++ {
		if _, err := cli.Read("x"); err != nil {
			t.Fatal(err)
		}
	}

	cli.Suspend()
	sess.Detach()
	if _, err := srv.Write("x", []byte("x#2")); err != nil {
		t.Fatal(err)
	}

	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	done, err := cli.ResumeResync(b2)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if !cli.HasCopy("x") {
		t.Fatal("one missed write deallocated a read-heavy copy")
	}
	it, err := cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "x#2" {
		t.Fatalf("read after light resync = %q, want x#2", it.Value)
	}
}

func TestResyncWithNoCopiesIsFree(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	cli.Suspend()
	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	before := cli.Meter().Snapshot()
	done, err := cli.ResumeResync(b2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("empty resync should complete immediately")
	}
	if cli.Offline() {
		t.Fatal("client offline after empty resync")
	}
	if after := cli.Meter().Snapshot(); after != before {
		t.Fatalf("empty resync sent traffic: %+v -> %+v", before, after)
	}
}

func TestPingPongUnmetered(t *testing.T) {
	cli, _, srvMeter := pair(t, SW(3))
	var got []uint64
	var mu sync.Mutex
	cli.SetPongHandler(func(seq uint64) {
		mu.Lock()
		got = append(got, seq)
		mu.Unlock()
	})
	cliBefore := cli.Meter().Snapshot()
	srvBefore := srvMeter.Snapshot()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := cli.Ping(seq); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("pongs = %v", got)
	}
	if cli.Meter().Snapshot() != cliBefore || srvMeter.Snapshot() != srvBefore {
		t.Fatal("liveness traffic was metered as protocol cost")
	}
	cli.Suspend()
	if err := cli.Ping(4); !errors.Is(err, ErrOffline) {
		t.Fatalf("ping while offline returned %v, want ErrOffline", err)
	}
}

func TestExpireIdleReapsSilentSessions(t *testing.T) {
	clock := newFakeClock()
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetClock(clock.Now)

	a1, b1 := transport.NewMemPair()
	srv.Attach(a1)
	quiet, err := NewClient(b1, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	chatty, err := NewClient(b2, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	_ = quiet

	const ttl = time.Minute
	clock.Advance(ttl / 2)
	if err := chatty.Ping(1); err != nil {
		t.Fatal(err)
	}
	if n := srv.ExpireIdle(ttl); n != 0 {
		t.Fatalf("reaped %d sessions before ttl", n)
	}
	clock.Advance(ttl/2 + time.Second)
	// quiet has now been silent > ttl; chatty's ping was within it.
	if n := srv.ExpireIdle(ttl); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions after reap = %d, want 1", srv.Sessions())
	}
	// The reaper closed the quiet client's link: its next probe fails.
	if err := quiet.Ping(2); err == nil {
		t.Fatal("ping on reaped link succeeded")
	}
	// The survivor keeps working.
	if err := chatty.Ping(2); err != nil {
		t.Fatal(err)
	}
}

func TestAllowStaleOfflineReads(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	clock := newFakeClock()
	cli.Cache().SetClock(clock.Now)
	allocate(t, cli, srv, "x")

	cli.Suspend()
	// Default contract: fail fast.
	if _, err := cli.Read("x"); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline read returned %v, want ErrOffline", err)
	}
	// Bounded staleness: the last known value comes back, but flagged.
	cli.AllowStale(time.Minute)
	it, err := cli.Read("x")
	if !errors.Is(err, ErrStale) {
		t.Fatalf("stale read returned %v, want ErrStale", err)
	}
	if string(it.Value) != "x#1" {
		t.Fatalf("stale read value = %q, want x#1", it.Value)
	}
	// A key never held yields nothing even under AllowStale.
	if _, err := cli.Read("never"); !errors.Is(err, ErrOffline) {
		t.Fatalf("stale read of unknown key returned %v, want ErrOffline", err)
	}
	// Past the bound, the flag degrades back to ErrOffline.
	clock.Advance(2 * time.Minute)
	if _, err := cli.Read("x"); !errors.Is(err, ErrOffline) {
		t.Fatalf("aged-out stale read returned %v, want ErrOffline", err)
	}
	cli.AllowStale(0)
	clock.Advance(-2 * time.Minute)
	if _, err := cli.Read("x"); !errors.Is(err, ErrOffline) {
		t.Fatal("AllowStale(0) did not restore fail-fast reads")
	}
}

func TestReadContextDeadline(t *testing.T) {
	// A server that never answers must not hold a read past its context.
	blackhole, b := transport.NewMemPair()
	blackhole.SetHandler(func([]byte) {})
	cli, err := NewClient(b, SW(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cli.ReadContext(ctx, "x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("context deadline ignored")
	}
	// Batch reads honour the context the same way.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := cli.ReadManyContext(ctx2, []string{"x", "y"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch read returned %v, want DeadlineExceeded", err)
	}
	// Cancelled waiters leave no residue: a later response wakes nobody.
	cli.mu.Lock()
	residue := len(cli.pendingBatch)
	for _, w := range cli.pending {
		for ; w != nil; w = w.next {
			residue++
		}
	}
	cli.mu.Unlock()
	if residue != 0 {
		t.Fatalf("%d stale waiters left after context expiry", residue)
	}
	// The late answer to the cancelled read finds nothing to complete.
	late := encodePooled(wire.Message{Kind: wire.KindReadResp, Key: "x", Value: []byte("v"), Version: 1, ID: 1})
	if err := blackhole.Send(late.B); err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(late)
	cli.mu.Lock()
	left := len(cli.pending)
	cli.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries left after the late answer", left)
	}
}

func TestLinkErrorHandlerFiresOnCurrentLinkOnly(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	allocate(t, cli, srv, "x")
	var fired []error
	var mu sync.Mutex
	cli.SetLinkErrorHandler(func(err error) {
		mu.Lock()
		fired = append(fired, err)
		mu.Unlock()
	})

	// Kill the link out from under the client; the next probe must
	// report the failure to the handler.
	cli.mu.Lock()
	link := cli.link
	cli.mu.Unlock()
	link.Close()
	if err := cli.Ping(1); err == nil {
		t.Fatal("ping on closed link succeeded")
	}
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("handler fired %d times, want 1", n)
	}

	// After the client moves to a fresh link, the dead one's errors are
	// stale news and must not fire the handler again.
	a2, b2 := transport.NewMemPair()
	srv.Attach(a2)
	cli.Reattach(b2)
	cli.suspect(link, errors.New("late failure from old link"))
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatalf("stale link error reached the handler: %v", fired)
	}
}
