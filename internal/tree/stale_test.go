package tree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Item 0 of the relay: two interleavings that left a subtree serving a
// stale copy for ever, and a failed fetch that left the MC's request
// counted for ever, so the MC edge could never be placed again. Each is
// scripted over manual chaos on a root, one relay and one MC, and ends by
// writing once more at the root: every copy still held anywhere must then
// carry the root's version.

// holdLink holds the first ReadResp inside Send until released: the
// schedule of a relay goroutine preempted between deciding a child's
// answer and sending it.
type holdLink struct {
	transport.Link
	once          sync.Once
	held, release chan struct{}
}

func (l *holdLink) Send(frame []byte) error {
	if k, _ := wire.FrameKind(frame); k == wire.KindReadResp {
		l.once.Do(func() {
			close(l.held)
			<-l.release
		})
	}
	return l.Link.Send(frame)
}

// relayRig is root (station 0) → relay (station 1) → MC, every edge a
// manual chaos pair. up/down are the relay edge's queues toward the root
// and toward the relay; mcUp/mcDown the MC edge's.
type relayRig struct {
	t                      *testing.T
	tr                     *Tree
	mc                     *MC
	up, down, mcUp, mcDown *transport.Chaos
	hold                   *holdLink
}

func newRelayRig(t *testing.T, hold bool) *relayRig {
	t.Helper()
	r := &relayRig{t: t}
	manual := transport.Config{Manual: true}
	tr, err := Build(Chain(2), db.NewStore(), replica.Static2(), 1, Policy{}, func(child, parent int) (transport.Link, transport.Link, error) {
		p, c, err := transport.NewChaosPair(manual)
		r.down, r.up = p, c
		return c, p, err
	})
	if err != nil {
		t.Fatal(err)
	}
	r.tr = tr
	p, c, err := transport.NewChaosPair(manual)
	if err != nil {
		t.Fatal(err)
	}
	r.mcDown, r.mcUp = p, c
	var stEnd transport.Link = p
	if hold {
		r.hold = &holdLink{Link: p, held: make(chan struct{}), release: make(chan struct{})}
		stEnd = r.hold
	}
	if r.mc, err = tr.AttachMC(1, c, stEnd); err != nil {
		t.Fatal(err)
	}
	r.mc.Client.Timeout = 10 * time.Second
	r.write()
	return r
}

func (r *relayRig) relay() *replica.Client { return r.tr.Stations[1].Client() }

// reattachRelay reconnects the relay's parent face cold over a fresh
// manual pair, failing every fetch it had parked.
func (r *relayRig) reattachRelay() {
	r.t.Helper()
	p, c, err := transport.NewChaosPair(transport.Config{Manual: true})
	if err != nil {
		r.t.Fatal(err)
	}
	r.tr.Stations[0].Server().Attach(p)
	r.down, r.up = p, c
	r.relay().Reattach(c)
}

func (r *relayRig) write() {
	r.t.Helper()
	if _, err := r.tr.Stations[0].Server().Write("k", []byte("v")); err != nil {
		r.t.Fatal(err)
	}
}

func drain(q *transport.Chaos) {
	for {
		if _, ok := q.Step(); !ok {
			return
		}
	}
}

// settle delivers everything queued, upstream first.
func (r *relayRig) settle() {
	qs := []*transport.Chaos{r.mcUp, r.up, r.down, r.mcDown}
	for n := 1; n > 0; {
		n = 0
		for _, q := range qs {
			n += q.Pending()
			drain(q)
		}
	}
}

// startRead parks an MC read of k and waits until its request is queued.
func (r *relayRig) startRead() <-chan error {
	r.t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := r.mc.Client.Read("k")
		done <- err
	}()
	if !r.mcUp.WaitPending(1, 5*time.Second) {
		r.t.Fatal("the MC sent no request")
	}
	return done
}

// finish writes once more and demands every held copy carry it.
func (r *relayRig) finish(read <-chan error) {
	r.t.Helper()
	r.settle()
	if err := <-read; err != nil {
		r.t.Fatal(err)
	}
	r.write()
	r.settle()
	root, _ := r.tr.Stations[0].Store().Get("k")
	for name, cli := range map[string]*replica.Client{"relay": r.relay(), "MC": r.mc.Client} {
		if it, held := cli.Cache().Peek("k"); held && it.Version != root.Version {
			r.t.Errorf("the %s holds v%d after the root wrote v%d", name, it.Version, root.Version)
		}
	}
}

func TestRelayStaleCopyRegressions(t *testing.T) {
	t.Run("NotHeld WriteProp while a fetch is parked", func(t *testing.T) {
		r := newRelayRig(t, false)
		r.finish(r.startRead()) // the relay and the MC hold v1
		// The relay sheds its copy (DeleteReq up, revocation down) while
		// the root writes: the root's WriteProp finds no copy.
		r.relay().DropCopy("k")
		drain(r.mcDown)
		r.write()
		read := r.startRead()
		drain(r.mcUp) // the relay parks the fetch and asks the root
		drain(r.down) // NotHeld: the relay re-asserts its DeleteReq
		r.finish(read)
	})
	t.Run("a failed fetch leaves no request counted", func(t *testing.T) {
		r := newRelayRig(t, false)
		read := r.startRead()
		drain(r.mcUp) // the relay parks the fetch and asks the root
		r.reattachRelay()
		drain(r.mcDown)
		if err := <-read; !errors.Is(err, replica.ErrOffline) {
			t.Fatalf("the refused read returned %v, want ErrOffline at once", err)
		}
		// The MC edge must still place copies: an allocating read, a drop,
		// a write, and two more reads leave the MC holding one again.
		r.finish(r.startRead())
		r.mc.Client.DropCopy("k")
		r.settle()
		r.write()
		for i := 0; i < 2 && !r.mc.Client.HasCopy("k"); i++ {
			r.finish(r.startRead())
		}
		if !r.mc.Client.HasCopy("k") {
			t.Error("the MC holds no copy after a drop, a write and two reads")
		}
	})
	t.Run("Invalidate races a child's allocation", func(t *testing.T) {
		r := newRelayRig(t, true)
		read := r.startRead()
		drain(r.mcUp)
		drain(r.up)
		answered := make(chan struct{})
		go func() {
			drain(r.down) // the relay installs and allocates to the MC
			close(answered)
		}()
		select {
		case <-r.hold.held:
		case <-time.After(5 * time.Second):
			t.Fatal("the relay never answered the MC")
		}
		// The relay's copy goes while its answer to the MC is in flight:
		// the revocation must not overtake the allocation.
		r.relay().DropCopy("k")
		close(r.hold.release)
		<-answered
		r.finish(read)
	})
}

// TestTCPTreeHeldCopiesCurrent drives a tree over loopback TCP with no
// shaping at all: every MC keeps two reads of each key in flight while
// the root writes continuously, and the relays shed copies by placement.
// At quiescence every copy held anywhere in the tree must carry the
// root's version. Timing decides whether a run meets the interleavings
// above, so this is a net, not a red/green proof.
func TestTCPTreeHeldCopiesCurrent(t *testing.T) {
	connect := tcpConnect(t)
	tr, err := Build(Binary(7), db.NewStore(), replica.SW(3), 1, Policy{Kind: core.KindT1, K: 2}, connect)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	root := tr.Stations[0].Server()
	for _, k := range keys {
		if _, err := root.Write(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var mcs []*MC
	for _, leaf := range tr.Topo.Leaves() {
		mcEnd, stEnd, err := connect(-1, leaf)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := tr.AttachMC(leaf, mcEnd, stEnd)
		if err != nil {
			t.Fatal(err)
		}
		mc.Client.Timeout = 5 * time.Second
		mcs = append(mcs, mc)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, mc := range mcs {
		for _, k := range keys {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(cli *replica.Client, k string) {
					defer wg.Done()
					for !stop.Load() {
						if _, err := cli.Read(k); err != nil {
							errs <- fmt.Errorf("read %s: %w", k, err)
							return
						}
					}
				}(mc.Client, k)
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := keys[i%len(keys)]
			if _, err := root.Write(k, []byte(fmt.Sprint(k, i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	holders := map[string]*replica.Client{}
	for i, st := range tr.Stations[1:] {
		holders[fmt.Sprintf("relay %d", i+1)] = st.Client()
	}
	for i, mc := range mcs {
		holders[fmt.Sprintf("MC %d", i)] = mc.Client
	}
	stale := func() string {
		for name, cli := range holders {
			for _, k := range keys {
				want, _ := tr.Stations[0].Store().Get(k)
				if it, held := cli.Cache().Peek(k); held && it.Version < want.Version {
					return fmt.Sprintf("%s holds %s at v%d, the root is at v%d", name, k, it.Version, want.Version)
				}
			}
		}
		return ""
	}
	// What is still in flight cascades down the tree. A ping round trip
	// drains a holder's link from its parent, whose pong leaves behind
	// every frame sent before it, so each round of pings delivers one more
	// hop: a bounded number of rounds settles the tree.
	pongs := make(chan struct{}, len(holders))
	for _, cli := range holders {
		cli.SetPongHandler(func(uint64) { pongs <- struct{}{} })
	}
	for round := uint64(0); ; round++ {
		msg := stale()
		if msg == "" {
			break
		}
		if round == 16 {
			t.Fatalf("at quiescence: %s", msg)
		}
		for _, cli := range holders {
			if err := cli.Ping(round); err != nil {
				t.Fatal(err)
			}
		}
		for range holders {
			select {
			case <-pongs:
			case <-time.After(5 * time.Second):
				t.Fatal("a ping went unanswered")
			}
		}
	}
}
