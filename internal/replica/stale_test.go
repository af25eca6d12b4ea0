package replica

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// The interleavings below once left a plain pair's MC serving a stale
// copy — four of them for ever — because the SC read the value it served
// outside the shard token and sent every frame after releasing it, and
// because any allocating answer installed. Each row is a script over a
// manual chaos pair and ends with the section 4 invariant: a copy at the
// MC carries the store's version, and the SC's copy bit says whether the
// MC holds one.

// holdLink holds the first frame of its kind inside Send until released:
// the schedule of a server goroutine preempted between deciding a frame
// and sending it.
type holdLink struct {
	transport.Link
	kind          wire.Kind
	once          sync.Once
	held, release chan struct{}
	closed        atomic.Bool
}

func (l *holdLink) Send(frame []byte) error {
	if k, _ := wire.FrameKind(frame); k == l.kind {
		l.once.Do(func() {
			close(l.held)
			<-l.release
		})
	}
	return l.Link.Send(frame)
}

func (l *holdLink) Close() error {
	l.closed.Store(true)
	return l.Link.Close()
}

func newHoldLink(l transport.Link, kind wire.Kind) *holdLink {
	return &holdLink{Link: l, kind: kind, held: make(chan struct{}), release: make(chan struct{})}
}

type stalePair struct {
	t        *testing.T
	srv      *Server
	sess     *Session
	cli      *Client
	mode     Mode
	s2c, c2s *transport.Chaos
	hold     *holdLink
}

func newStalePair(t *testing.T, mode Mode, hold bool) *stalePair {
	t.Helper()
	srv, err := NewServer(db.NewStore(), mode)
	if err != nil {
		t.Fatal(err)
	}
	s2c, c2s, err := transport.NewChaosPair(transport.Config{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	p := &stalePair{t: t, srv: srv, mode: mode, s2c: s2c, c2s: c2s}
	var scEnd transport.Link = s2c
	if hold {
		p.hold = newHoldLink(s2c, wire.KindReadResp)
		scEnd = p.hold
	}
	p.sess = srv.Attach(scEnd)
	if p.cli, err = NewClient(c2s, mode); err != nil {
		t.Fatal(err)
	}
	p.cli.Timeout = 10 * time.Second
	p.write(1)
	return p
}

func (p *stalePair) write(v uint64) {
	p.t.Helper()
	if it, err := p.srv.Write("k", []byte{byte(v)}); err != nil || it.Version != v {
		p.t.Fatalf("write v%d: %+v, %v", v, it, err)
	}
}

// startRead parks a read of k on its own goroutine and waits until its
// request is queued.
func (p *stalePair) startRead(ctx context.Context) <-chan error {
	p.t.Helper()
	before := p.c2s.Pending()
	done := make(chan error, 1)
	go func() {
		_, err := p.cli.ReadContext(ctx, "k")
		done <- err
	}()
	if !p.c2s.WaitPending(before+1, 5*time.Second) {
		p.t.Fatal("the read sent no request")
	}
	return done
}

// settle delivers every queued frame, each direction in order, until
// both are empty.
func (p *stalePair) settle() {
	for p.s2c.Pending()+p.c2s.Pending() > 0 {
		for _, q := range []*transport.Chaos{p.s2c, p.c2s} {
			for {
				if _, ok := q.Step(); !ok {
					break
				}
			}
		}
	}
}

// serveHeld delivers the read request while the server's answer is held
// in Send, runs during (a write, in every row), then lets the answer go.
func (p *stalePair) serveHeld(during func()) {
	p.t.Helper()
	stepped := make(chan struct{})
	go func() {
		p.c2s.Step()
		close(stepped)
	}()
	select {
	case <-p.hold.held:
	case <-time.After(5 * time.Second):
		p.t.Fatal("the server never sent its answer")
	}
	during()
	close(p.hold.release)
	<-stepped
}

func (p *stalePair) check() {
	p.t.Helper()
	store, _ := p.srv.Store().Get("k")
	it, held := p.cli.Cache().Peek("k")
	if held && it.Version != store.Version {
		p.t.Errorf("the MC's copy is at v%d, the store at v%d", it.Version, store.Version)
	}
	if sc, _ := implSCState(p.sess, p.mode, "k"); sc != held {
		p.t.Errorf("the SC's copy bit is %v, the MC holds a copy: %v", sc, held)
	}
}

func TestStaleCopyInterleavings(t *testing.T) {
	rows := []struct {
		name string
		mode Mode
		hold bool
		run  func(p *stalePair)
	}{
		{"A read racing a write", Static2(), false, func(p *stalePair) {
			// The origin hook lets a write commit before the read is served.
			var once sync.Once
			p.srv.SetOrigin(func(f *Fetch) {
				once.Do(func() { p.write(2) })
				f.Done(true)
			})
			read := p.startRead(context.Background())
			p.settle()
			if err := <-read; err != nil {
				p.t.Fatal(err)
			}
		}},
		{"B ST2 WriteProp overtakes the allocation", Static2(), true, func(p *stalePair) {
			read := p.startRead(context.Background())
			p.serveHeld(func() { p.write(2) })
			p.settle()
			if err := <-read; err != nil {
				p.t.Fatal(err)
			}
		}},
		{"C ST2 re-assert cancels a later allocation", Static2(), false, func(p *stalePair) {
			p.allocate()
			p.cli.DropCopy("k")
			p.write(2)
			read := p.startRead(context.Background())
			p.settle()
			if err := <-read; err != nil {
				p.t.Fatal(err)
			}
		}},
		{"D SW1 DeleteReq overtakes the allocation", SW(1), true, func(p *stalePair) {
			read := p.startRead(context.Background())
			p.serveHeld(func() { p.write(2) })
			p.settle()
			if err := <-read; err != nil {
				p.t.Fatal(err)
			}
		}},
		{"E ST2 the read gave up before the re-assert", Static2(), false, func(p *stalePair) {
			p.allocate()
			p.cli.DropCopy("k")
			p.write(2)
			ctx, cancel := context.WithCancel(context.Background())
			read := p.startRead(ctx)
			cancel()
			if err := <-read; !errors.Is(err, context.Canceled) {
				p.t.Fatalf("cancelled read returned %v", err)
			}
			p.settle()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := newStalePair(t, row.mode, row.hold)
			row.run(p)
			p.check()
		})
	}
}

// allocate gives the MC a copy of k through one allocating read.
func (p *stalePair) allocate() {
	p.t.Helper()
	read := p.startRead(context.Background())
	p.settle()
	if err := <-read; err != nil || !p.cli.HasCopy("k") {
		p.t.Fatalf("setup read: %v, held=%v", err, p.cli.HasCopy("k"))
	}
}

// TestInvalidateRevokesOnlyCopies pins the fan-out loop's revoke
// decision: a session holding a copy is sent one DeleteReq and its window
// resets to all writes; a session without one is sent nothing, and its
// window — the SC's, in charge — is not slid as a write would slide it.
func TestInvalidateRevokesOnlyCopies(t *testing.T) {
	for _, mode := range []Mode{SW(1), SW(3)} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, err := NewServer(db.NewStore(), mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Write("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			var clis [2]*Client
			var sess [2]*Session
			for i := range clis {
				a, b := transport.NewMemPair()
				sess[i] = srv.Attach(a)
				if clis[i], err = NewClient(b, mode); err != nil {
					t.Fatal(err)
				}
			}
			allocate(t, clis[0], srv, "k")
			if _, err := clis[1].Read("k"); err != nil { // one read: no copy yet under SW3
				t.Fatal(err)
			}
			if mode.K == 1 {
				clis[1].DropCopy("k")
			}
			_, before := implSCState(sess[1], mode, "k")
			if n := srv.Invalidate("k"); n != 1 {
				t.Fatalf("Invalidate revoked %d sessions, want 1", n)
			}
			if clis[0].HasCopy("k") {
				t.Error("the holder kept its copy")
			}
			if has, win := implSCState(sess[0], mode, "k"); has || !windowsEqual(win, NewModel(mode).SCWindow("k")) {
				t.Errorf("holder's SC state after revoke: copy=%v window=%v, want none and all writes", has, win)
			}
			if has, win := implSCState(sess[1], mode, "k"); has || !windowsEqual(win, before) {
				t.Errorf("non-holder's SC state: copy=%v window=%v, want none and %v", has, win, before)
			}
		})
	}
}

// failOnceLink fails the first ReadReq sent on it, as a link that errors
// mid-send does, and stays the client's link.
type failOnceLink struct {
	transport.Link
	failed atomic.Bool
}

func (l *failOnceLink) Send(frame []byte) error {
	if k, _ := wire.FrameKind(frame); k == wire.KindReadReq && l.failed.CompareAndSwap(false, true) {
		return errors.New("send failed")
	}
	return l.Link.Send(frame)
}

// TestFailedSendLeavesNoRequestCounted: a read whose request never left
// must not stay counted as unanswered, or the next deallocation would
// disown a later read's allocation and the key would never be placed
// again.
func TestFailedSendLeavesNoRequestCounted(t *testing.T) {
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.NewMemPair()
	sess := srv.Attach(a)
	cli, err := NewClient(&failOnceLink{Link: b}, Static2())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read("k"); !errors.Is(err, ErrOffline) {
		t.Fatalf("read over a failing send returned %v, want ErrOffline", err)
	}
	allocate(t, cli, srv, "k")
	cli.DropCopy("k")
	if _, err := srv.Write("k", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Read("k"); err != nil {
		t.Fatal(err)
	}
	if sc, _ := implSCState(sess, Static2(), "k"); !cli.HasCopy("k") || !sc {
		t.Fatalf("after a drop, a write and a read: MC holds a copy %v, SC copy bit %v; want both", cli.HasCopy("k"), sc)
	}
}
