package replica

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
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
			// A held fetch lets a write commit before the read is served.
			var once sync.Once
			p.srv.holdFetch = func(r *request) {
				once.Do(func() { p.write(2) })
				resolve(r, true)
			}
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
			if n := srv.invalidate("k"); n != 1 {
				t.Fatalf("invalidate revoked %d sessions, want 1", n)
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
// must leave nothing behind that cancels a later read's allocation, or
// the key would never be placed again. (When the MC counted each key's
// unanswered requests, such a read stayed counted unless its send failed
// on the client's current link.)
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

// TestCase is one scripted schedule over a manual chaos pair: Script is
// one step per line, Expect the final state of every key it touched, one
// line per key in key order.
type TestCase struct {
	Name   string
	Script string
	Expect []string
}

// The steps a script may take:
//
//	read K / readmany K...  start a singleton / joint read; it waits on
//	                        its own goroutine once its request is queued
//	cancel                  the last read started gives up
//	refused                 the oldest read still waited on fails offline
//	done [vN...]            every other read started returns; with
//	                        versions, the singleton reads, oldest first,
//	                        returned those
//	up / down               deliver the next client->server / server->client frame
//	lose up / lose down     chaos loses that frame instead
//	dup down                deliver it, and queue a copy behind the rest
//	write K                 commit the next version of K at the SC
//	drop K                  the MC deallocates its copy of K
//	revoke K                the SC revokes every copy of K (a relay's invalidate)
//	hold                    the SC keeps the next read's fetch (a relay
//	                        waiting on its parent)
//	release / refuse        the oldest kept fetch completes / fails
//	settle                  deliver everything queued, both ways
type scriptRun struct {
	*stalePair
	versions map[string]uint64
	reads    []*scriptRead
	held     []*request
	holdNext bool
}

type scriptRead struct {
	cancel  context.CancelFunc
	done    chan error
	version uint64 // a singleton read's result, set before done
}

func runTestCase(t *testing.T, tc TestCase) {
	t.Helper()
	r := &scriptRun{stalePair: newStalePair(t, Static2(), false), versions: map[string]uint64{"k": 1}}
	r.srv.holdFetch = func(q *request) {
		if r.holdNext {
			r.holdNext, r.held = false, append(r.held, q)
			return
		}
		resolve(q, true)
	}
	for _, line := range strings.Split(strings.TrimSpace(tc.Script), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			r.step(f[0], f[1:])
		}
	}
	var keys, got []string
	for key := range r.versions {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		got = append(got, r.state(key))
	}
	if !slices.Equal(got, tc.Expect) {
		t.Errorf("final state:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(tc.Expect, "\n  "))
	}
}

func (r *scriptRun) step(op string, args []string) {
	t := r.t
	t.Helper()
	switch op {
	case "read", "readmany":
		ctx, cancel := context.WithCancel(context.Background())
		before := r.c2s.Pending()
		rd := &scriptRead{cancel: cancel, done: make(chan error, 1)}
		go func() {
			var err error
			if op == "read" {
				var it db.Item
				it, err = r.cli.ReadContext(ctx, args[0])
				rd.version = it.Version
			} else {
				_, err = r.cli.ReadManyContext(ctx, args)
			}
			rd.done <- err
		}()
		if !r.c2s.WaitPending(before+1, 5*time.Second) {
			t.Fatalf("%s %v sent no request", op, args)
		}
		r.reads = append(r.reads, rd)
	case "cancel":
		last := r.reads[len(r.reads)-1]
		r.reads = r.reads[:len(r.reads)-1]
		last.cancel()
		if err := <-last.done; !errors.Is(err, context.Canceled) {
			t.Fatalf("the cancelled read returned %v", err)
		}
	case "refused":
		first := r.reads[0]
		r.reads = r.reads[1:]
		defer first.cancel()
		if err := <-first.done; !errors.Is(err, ErrOffline) {
			t.Fatalf("the refused read returned %v", err)
		}
	case "done":
		var got []string
		for _, rd := range r.reads {
			defer rd.cancel()
			if err := <-rd.done; err != nil {
				t.Fatalf("a read failed: %v", err)
			}
			got = append(got, fmt.Sprintf("v%d", rd.version))
		}
		if len(args) > 0 && !slices.Equal(got, args) {
			t.Fatalf("the reads returned %v, want %v", got, args)
		}
		r.reads = nil
	case "up", "down":
		if _, ok := r.queue(op).Step(); !ok {
			t.Fatalf("nothing to deliver %s", op)
		}
	case "lose":
		q := r.queue(args[0])
		q.Partition(1)
		if ev, ok := q.Step(); !ok || ev.Action != transport.ChaosDropped {
			t.Fatalf("nothing to lose %s", args[0])
		}
	case "dup":
		q := r.queue(args[0])
		frame := q.PendingFrames()[0]
		if _, ok := q.Step(); !ok {
			t.Fatalf("nothing to duplicate %s", args[0])
		}
		if err := q.Send(frame); err != nil {
			t.Fatal(err)
		}
	case "write":
		r.versions[args[0]]++
		if _, err := r.srv.Write(args[0], []byte{byte(r.versions[args[0]])}); err != nil {
			t.Fatal(err)
		}
	case "drop":
		if !r.cli.DropCopy(args[0]) {
			t.Fatalf("the MC held no copy of %s to drop", args[0])
		}
	case "revoke":
		r.srv.invalidate(args[0])
	case "hold":
		r.holdNext = true
	case "release", "refuse":
		q := r.held[0]
		r.held = r.held[1:]
		resolve(q, op == "release")
	case "settle":
		r.settle()
	default:
		t.Fatalf("unknown step %q", op)
	}
}

func (r *scriptRun) queue(dir string) *transport.Chaos {
	if dir == "up" {
		return r.c2s
	}
	return r.s2c
}

// state renders key's final state — the MC's copy and the SC's copy bit —
// after checking the section 4 invariant on it.
func (r *scriptRun) state(key string) string {
	r.t.Helper()
	mc, sc := "-", "-"
	it, held := r.cli.Cache().Peek(key)
	if held {
		mc = fmt.Sprintf("v%d", it.Version)
		if it.Version != r.versions[key] {
			r.t.Errorf("the MC's copy of %s is at v%d, the store at v%d", key, it.Version, r.versions[key])
		}
	}
	if copyBit, _ := implSCState(r.sess, Static2(), key); copyBit {
		sc = "copy"
	}
	if (sc == "copy") != held {
		r.t.Errorf("%s: the SC's copy bit says %s, the MC holds %s", key, sc, mc)
	}
	return fmt.Sprintf("%s: mc %s, sc %s", key, mc, sc)
}

// TestRequestIDCases: the MC installs an allocating answer only if the
// request it answers is newer than the key's last DeleteReq (and than any
// allocating answer already taken), so no frame lost, duplicated or
// reordered on the way makes the two sides disagree about a copy, and a
// ReadFail fails the one read it names. The first four rows ended with a
// stale or orphaned copy when the MC credited each answer to the key's
// oldest unanswered request instead, and the sixth left the refused read
// parked until some other answer came; the fifth and the last pin what
// that counting got right.
func TestRequestIDCases(t *testing.T) {
	for _, tc := range []TestCase{{
		Name: "duplicated answer",
		Script: `
			read k
			up
			dup down
			done
			drop k
			up
			write k
			read k
			up
			settle
			done`,
		Expect: []string{"k: mc v2, sc copy"},
	}, {
		Name: "relay answers two reads of a key out of order",
		Script: `
			read k
			read k
			up
			hold
			up
			down
			drop k
			up
			read k
			up
			release
			settle
			done`,
		Expect: []string{"k: mc v1, sc copy"},
	}, {
		Name: "a request lost on a live link",
		Script: `
			read k
			lose up
			cancel
			read k
			up
			down
			done
			drop k
			up
			write k
			read k
			up
			down
			done`,
		Expect: []string{"k: mc v2, sc copy"},
	}, {
		Name: "a joint read that gave up answers no younger one",
		Script: `
			read k
			settle
			done
			drop k
			write k
			readmany k
			up
			up
			cancel
			down
			readmany k
			up
			write k
			up
			settle
			done`,
		Expect: []string{"k: mc v3, sc copy"},
	}, {
		Name: "a joint read parked behind a DeleteReq of one of its keys",
		Script: `
			write j
			read k
			settle
			done
			drop k
			write k
			readmany k j
			up
			up
			down
			up
			down
			done`,
		Expect: []string{"j: mc v1, sc copy", "k: mc -, sc -"},
	}, {
		Name: "a relay refuses one of two reads of a key",
		Script: `
			hold
			read k
			up
			hold
			read k
			up
			refuse
			down
			refused
			release
			down
			done`,
		Expect: []string{"k: mc v1, sc copy"},
	}, {
		Name: "a duplicated answer behind the SC's revocation",
		Script: `
			read k
			up
			revoke k
			dup down
			done
			settle
			write k`,
		Expect: []string{"k: mc -, sc -"},
	}, {
		Name: "a duplicated answer completes no younger read",
		Script: `
			read k
			up
			dup down
			done v1
			drop k
			up
			write k
			read k
			up
			settle
			done v2`,
		Expect: []string{"k: mc v2, sc copy"},
	}} {
		t.Run(tc.Name, func(t *testing.T) { runTestCase(t, tc) })
	}
}

// TestEarlierLinkAnswersIgnored: once the client has moved to a new link,
// an answer to a request sent on the old one — singleton or joint —
// installs nothing and completes nothing: the session that sent it is
// gone.
func TestEarlierLinkAnswersIgnored(t *testing.T) {
	blackhole := func() transport.Link {
		a, b := transport.NewMemPair()
		a.SetHandler(func([]byte) {})
		return b
	}
	cli, err := NewClient(blackhole(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	reads := make(chan error, 2)
	go func() { _, err := cli.Read("x"); reads <- err }()
	go func() { _, err := cli.ReadMany([]string{"y"}); reads <- err }()
	for i := 0; ; i++ {
		cli.mu.Lock()
		parked := cli.pending["x"] != nil && cli.pending["y"] != nil
		cli.mu.Unlock()
		if parked {
			break
		}
		if i == 1_000_000 {
			t.Fatal("the reads never parked")
		}
		runtime.Gosched()
	}
	cli.Reattach(blackhole())
	for range 2 {
		if err := <-reads; !errors.Is(err, ErrOffline) {
			t.Fatalf("a read on the old link returned %v, want ErrOffline", err)
		}
	}
	read := make(chan error, 1)
	go func() { _, err := cli.Read("x"); read <- err }()
	for i := 0; !cli.AwaitingRead("x"); i++ {
		if i == 1_000_000 {
			t.Fatal("the read on the new link never parked")
		}
		runtime.Gosched()
	}
	for id := uint64(1); id <= 2; id++ {
		frame, err := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadResp, Key: "x", Value: []byte("old"), Version: 1, Allocate: true, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		cli.onFrame(frame)
		if frame, err = wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadResp, ID: id,
			Entries: []wire.Entry{{Key: "y", Value: []byte("old"), Version: 1, Allocate: true}}}); err != nil {
			t.Fatal(err)
		}
		cli.onFrame(frame)
	}
	if cli.HasCopy("x") || cli.HasCopy("y") || !cli.AwaitingRead("x") {
		t.Fatalf("old answers: copy of x %v, of y %v, the new read still parked %v; want no copies and parked",
			cli.HasCopy("x"), cli.HasCopy("y"), cli.AwaitingRead("x"))
	}
	cli.Disconnect()
	if err := <-read; !errors.Is(err, ErrOffline) {
		t.Fatalf("the new read returned %v, want ErrOffline", err)
	}
}
