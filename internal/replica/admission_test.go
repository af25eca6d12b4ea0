package replica

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// busyCollector records Busy frames arriving on the client side of a raw
// mem link, so admission tests can assert every refusal was answered.
type busyCollector struct {
	mu     sync.Mutex
	busies []wire.Message
}

func (bc *busyCollector) install(link transport.Link) {
	link.SetHandler(func(frame []byte) {
		msg, err := wire.DecodeBorrowed(frame)
		if err != nil || msg.Kind != wire.KindBusy {
			return
		}
		bc.mu.Lock()
		bc.busies = append(bc.busies, wire.Message{
			Kind: msg.Kind, Key: strings.Clone(msg.Key), Version: msg.Version,
		})
		bc.mu.Unlock()
	})
}

func (bc *busyCollector) snapshot() []wire.Message {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return append([]wire.Message(nil), bc.busies...)
}

func TestTryAttachMaxSessionsRefusesWithBusy(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetAdmission(AdmissionConfig{MaxSessions: 2, RetryAfter: 1500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	var sessions []*Session
	for i := 0; i < 2; i++ {
		a, _ := transport.NewMemPair()
		ss, err := srv.TryAttach(a)
		if err != nil {
			t.Fatalf("attach %d under cap: %v", i, err)
		}
		sessions = append(sessions, ss)
	}

	a, b := transport.NewMemPair()
	var bc busyCollector
	bc.install(b)
	if _, err := srv.TryAttach(a); err != ErrServerBusy {
		t.Fatalf("attach over cap: err = %v, want ErrServerBusy", err)
	}
	busies := bc.snapshot()
	if len(busies) != 1 {
		t.Fatalf("refused client saw %d busy frames, want 1", len(busies))
	}
	if busies[0].Key != "full" || busies[0].Version != 1500 {
		t.Fatalf("busy frame = %+v, want reason full, retry 1500ms", busies[0])
	}
	// The refused link is closed: the server keeps nothing for it.
	if err := a.Send([]byte{0}); err != transport.ErrClosed {
		t.Fatalf("send on refused link: err = %v, want ErrClosed", err)
	}
	if n := srv.Sessions(); n != 2 {
		t.Fatalf("sessions after refusal = %d, want 2", n)
	}

	// A detach frees the slot; the next attach is admitted again.
	sessions[0].Detach()
	a2, _ := transport.NewMemPair()
	if _, err := srv.TryAttach(a2); err != nil {
		t.Fatalf("attach after detach freed a slot: %v", err)
	}
}

// TestTryAttachRateBucketRefusesAndRefills: AttachRate and AttachBurst
// are server-wide promises, so "2/s, burst 2" admits the same attaches
// whatever the shard count (NewServer's default follows GOMAXPROCS; a
// bucket split per shard once made this test depend on the host).
func TestTryAttachRateBucketRefusesAndRefills(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testAttachRateBucket(t, shards)
		})
	}
}

func testAttachRateBucket(t *testing.T, shards int) {
	srv, err := NewServerShards(db.NewStore(), SW(3), shards)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	srv.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	if err := srv.SetAdmission(AdmissionConfig{AttachRate: 2, AttachBurst: 2}); err != nil {
		t.Fatal(err)
	}

	attach := func() error {
		a, _ := transport.NewMemPair()
		_, err := srv.TryAttach(a)
		return err
	}
	// Burst of two admits back-to-back, then the bucket is dry.
	if err := attach(); err != nil {
		t.Fatalf("attach 1: %v", err)
	}
	if err := attach(); err != nil {
		t.Fatalf("attach 2: %v", err)
	}
	a, b := transport.NewMemPair()
	var bc busyCollector
	bc.install(b)
	if _, err := srv.TryAttach(a); err != ErrServerBusy {
		t.Fatalf("attach 3 on dry bucket: err = %v, want ErrServerBusy", err)
	}
	if busies := bc.snapshot(); len(busies) != 1 || busies[0].Key != "rate" || busies[0].Version != 1000 {
		t.Fatalf("busy frames = %+v, want one rate refusal with default 1s hint", busies)
	}
	// A rate refusal must not leak a session slot.
	if n := srv.Sessions(); n != 2 {
		t.Fatalf("sessions after rate refusal = %d, want 2", n)
	}
	// One second at 2/s refills two tokens.
	advance(time.Second)
	if err := attach(); err != nil {
		t.Fatalf("attach after refill: %v", err)
	}
	if err := attach(); err != nil {
		t.Fatalf("second attach after refill: %v", err)
	}
	if err := attach(); err != ErrServerBusy {
		t.Fatalf("attach past refill: err = %v, want ErrServerBusy", err)
	}
}

func TestEvictSendsBusyThenDetaches(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.NewMemPair()
	ss := srv.Attach(a)
	var bc busyCollector
	bc.install(b)

	if !ss.Evict("shed", 250*time.Millisecond) {
		t.Fatal("first Evict lost the detach race against nobody")
	}
	busies := bc.snapshot()
	if len(busies) != 1 || busies[0].Key != "shed" || busies[0].Version != 250 {
		t.Fatalf("busy frames = %+v, want one shed notice with 250ms hint", busies)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("sessions after eviction = %d, want 0", n)
	}
	if ss.Evict("shed", 250*time.Millisecond) {
		t.Fatal("second Evict re-shed a detached session")
	}
}

// TestEvictWhileAnotherGoroutineSends evicts a session while another
// goroutine holds its send turn, stalled inside Send (here a Pong; under
// memory pressure, a fan-out). The Busy frame queues behind that frame,
// and the link may close only once the turn holder has sent it.
func TestEvictWhileAnotherGoroutineSends(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.NewMemPair()
	hold := newHoldLink(a, wire.KindPong)
	ss := srv.Attach(hold)
	var bc busyCollector
	bc.install(b)
	ping := encodePooled(wire.Message{Kind: wire.KindPing, Version: 1})
	pinged := make(chan error, 1)
	go func() { pinged <- b.Send(ping.B) }()
	select {
	case <-hold.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never sent its Pong")
	}
	if !ss.Evict("shed", 250*time.Millisecond) {
		t.Fatal("Evict lost the detach race against nobody")
	}
	if hold.closed.Load() || len(bc.snapshot()) != 0 {
		t.Fatal("the link closed, or Busy left, before the turn holder's frame")
	}
	close(hold.release)
	if err := <-pinged; err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(ping)
	if busies := bc.snapshot(); len(busies) != 1 || busies[0].Key != "shed" || busies[0].Version != 250 {
		t.Fatalf("busy frames = %+v, want one shed notice with 250ms hint", busies)
	}
	if !hold.closed.Load() {
		t.Fatal("the link stayed open after the Busy frame")
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("sessions after eviction = %d, want 0", n)
	}
}

func TestMemBytesAccountsSessionsAndItems(t *testing.T) {
	mode := SW(3)
	srv, err := NewServer(db.NewStore(), mode)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.MemBytes(); got != 0 {
		t.Fatalf("empty server MemBytes = %d, want 0", got)
	}
	a, b := transport.NewMemPair()
	ss := srv.Attach(a)
	cli, err := NewClient(b, mode)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.MemBytes(); got != sessionMemBase {
		t.Fatalf("MemBytes after attach = %d, want %d", got, sessionMemBase)
	}
	if _, err := srv.Write("key-a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read("key-a"); err != nil {
		t.Fatal(err)
	}
	want := int64(sessionMemBase) + itemMemCost("key-a", mode)
	if got := srv.MemBytes(); got != want {
		t.Fatalf("MemBytes after one tracked key = %d, want %d", got, want)
	}
	// A second read of the same key creates no new state.
	if _, err := cli.Read("key-a"); err != nil {
		t.Fatal(err)
	}
	if got := srv.MemBytes(); got != want {
		t.Fatalf("MemBytes after repeat read = %d, want %d", got, want)
	}
	ss.Detach()
	if got := srv.MemBytes(); got != 0 {
		t.Fatalf("MemBytes after detach = %d, want 0", got)
	}
}

func TestShedToBudgetEvictsIdleLongestFirst(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	srv.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})

	// Three sessions attached a second apart: the first is idle-longest.
	var collectors [3]busyCollector
	for i := range collectors {
		a, b := transport.NewMemPair()
		collectors[i].install(b)
		srv.Attach(a)
		mu.Lock()
		now = now.Add(time.Second)
		mu.Unlock()
	}

	// Under the watermark nothing is shed.
	srv.SetMemSoftLimit(10 * sessionMemBase)
	if n := srv.ShedToBudget(); n != 0 {
		t.Fatalf("shed under watermark = %d, want 0", n)
	}

	// Three sessions cost 3*base; a limit just under that sheds exactly
	// the oldest one.
	srv.SetMemSoftLimit(3*sessionMemBase - 1)
	if n := srv.ShedToBudget(); n != 1 {
		t.Fatalf("shed over watermark = %d, want 1", n)
	}
	if n := srv.Sessions(); n != 2 {
		t.Fatalf("sessions after shed = %d, want 2", n)
	}
	if busies := collectors[0].snapshot(); len(busies) != 1 || busies[0].Key != "shed" {
		t.Fatalf("idle-longest session busy frames = %+v, want one shed notice", busies)
	}
	for i := 1; i < 3; i++ {
		if busies := collectors[i].snapshot(); len(busies) != 0 {
			t.Fatalf("session %d shed out of order: %+v", i, busies)
		}
	}
	// Already under budget again: a second pass is a no-op.
	if n := srv.ShedToBudget(); n != 0 {
		t.Fatalf("second shed pass = %d, want 0", n)
	}
}

// latchLink wraps the client end of a mem pair and buffers frames that
// arrive before a handler is installed. The mem pair delivers
// synchronously, so a Busy frame sent by admission control during dial —
// before ResumeResync installs the client's handler — would otherwise be
// lost; over TCP the socket buffers it.
type latchLink struct {
	transport.Link
	mu      sync.Mutex
	h       transport.Handler
	pending [][]byte
}

func newLatchLink(inner transport.Link) *latchLink {
	l := &latchLink{Link: inner}
	inner.SetHandler(func(frame []byte) {
		l.mu.Lock()
		h := l.h
		if h == nil {
			l.pending = append(l.pending, append([]byte(nil), frame...))
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		h(frame)
	})
	return l
}

func (l *latchLink) SetHandler(h transport.Handler) {
	l.mu.Lock()
	l.h = h
	pending := l.pending
	l.pending = nil
	l.mu.Unlock()
	if h == nil {
		return
	}
	for _, f := range pending {
		h(f)
	}
}

func TestSupervisorHonorsBusyRetryAfter(t *testing.T) {
	srv, err := NewServer(db.NewStore(), SW(3))
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

	// Redials go through admission; a refusal leaves the Busy frame
	// latched for the client to pick up when it takes the link.
	dial := func() (transport.Link, error) {
		serverEnd, clientEnd := transport.NewMemPair()
		lk := newLatchLink(clientEnd)
		_, _ = srv.TryAttach(serverEnd)
		return lk, nil
	}
	sup := fastSupervisor(cli, dial, func(cfg *SupervisorConfig) {
		// A resync timeout far above the test budget: only the Busy signal
		// can unblock a refused reattach attempt this fast.
		cfg.ResyncTimeout = time.Minute
	})
	sup.Start()
	defer sup.Stop()

	// The lone slot is held by a throwaway session, so every supervised
	// redial is refused with Busy until the slot frees up. (Attached
	// before the policy lands: the cap gates new attaches only.)
	blockA, _ := transport.NewMemPair()
	blocker, err := srv.TryAttach(blockA)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetAdmission(AdmissionConfig{MaxSessions: 1, RetryAfter: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// Kill the live link; the supervisor now cycles Busy refusals.
	sess.Detach()
	b.Close()
	if _, err := cli.Read("y"); err == nil {
		t.Fatal("read on dead link succeeded")
	}
	waitFor(t, func() bool { return sup.Stats().BusySignals >= 2 }, "busy-refused redials")

	// Free the slot: the next hinted retry must get back online well
	// inside the one-minute resync timeout.
	blocker.Detach()
	waitFor(t, func() bool { return sup.Stats().Reconnects >= 1 && !cli.Offline() }, "recovery after busy")
	if !cli.HasCopy("x") {
		t.Fatal("warm copy lost across busy-refused recovery")
	}
}
