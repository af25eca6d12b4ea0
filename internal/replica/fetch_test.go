package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// A relay's read-through rides a pooled Fetch record that whoever
// completes it recycles (readWaiter). These tests pin that every
// ReadThrough completes exactly once on every path that can end it, and
// that a recycled record never takes an answer meant for an earlier read.

// relayRig is a relay in miniature, wired as tree.Station wires one: a
// server whose origin reads through up, its parent face, and whose
// read-through handler mirrors what it fetched. The test plays the parent
// (peer, the far end of up's link) and the child (child, the far end of a
// session's link) frame by frame.
type relayRig struct {
	t     *testing.T
	up    *Client
	relay *Server
	peer  transport.Link
	child transport.Link

	mu      sync.Mutex
	upSent  []wire.Message    // what up sent its parent
	answers []wire.Message    // what the relay sent the child
	batches []wire.Batch      // batch answers the relay sent the child
	done    map[string][]bool // every completion of a fetch, by key
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	r := &relayRig{t: t, done: make(map[string][]bool)}
	var upEnd transport.Link
	r.peer, upEnd = transport.NewMemPair()
	r.peer.SetHandler(func(frame []byte) {
		msg, err := wire.DecodeBorrowed(frame)
		if err != nil {
			t.Errorf("up sent a bad frame: %v", err)
			return
		}
		r.mu.Lock()
		r.upSent = append(r.upSent, msg.Clone())
		r.mu.Unlock()
	})
	var err error
	if r.up, err = NewClient(upEnd, Static2()); err != nil {
		t.Fatal(err)
	}
	r.up.SetTrackFloors(true)
	if r.relay, err = NewServer(db.NewStore(), Static2()); err != nil {
		t.Fatal(err)
	}
	r.relay.SetOrigin(r.up.ReadThrough)
	r.up.SetReadThroughHandler(func(f *Fetch, it db.Item, ok bool) {
		r.mu.Lock()
		r.done[f.Key()] = append(r.done[f.Key()], ok)
		r.mu.Unlock()
		if ok && it.Version > 0 {
			if _, err := r.relay.Apply(db.Item{Key: f.Key(), Value: it.Value, Version: it.Version}); err != nil {
				t.Error(err)
			}
		}
		f.Done(ok)
	})
	var sessEnd transport.Link
	r.child, sessEnd = transport.NewMemPair()
	r.child.SetHandler(func(frame []byte) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if wire.IsBatchFrame(frame) {
			b, err := wire.DecodeBatch(frame)
			if err != nil {
				t.Errorf("the relay sent a bad batch: %v", err)
			}
			r.batches = append(r.batches, b)
			return
		}
		msg, err := wire.DecodeBorrowed(frame)
		if err != nil {
			t.Errorf("the relay sent a bad frame: %v", err)
			return
		}
		r.answers = append(r.answers, msg.Clone())
	})
	r.relay.Attach(sessEnd)
	return r
}

// send encodes m onto l.
func send(l transport.Link, m wire.Message) error {
	buf := encodePooled(m)
	defer wire.PutBuf(buf)
	return l.Send(buf.B)
}

// read has the child ask the relay for key.
func (r *relayRig) read(key string, floor uint64) {
	r.t.Helper()
	if err := send(r.child, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		r.t.Fatal(err)
	}
}

// answer has the parent answer up's read of key at version v.
func (r *relayRig) answer(key string, v uint64, allocate bool) {
	r.t.Helper()
	m := wire.Message{Kind: wire.KindReadResp, Key: key, Value: []byte(fmt.Sprintf("%s@%d", key, v)), Version: v, Allocate: allocate}
	if err := send(r.peer, m); err != nil {
		r.t.Fatal(err)
	}
}

// completions returns how the fetches of key completed, in order.
func (r *relayRig) completions(key string) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]bool(nil), r.done[key]...)
}

// lastAnswer returns the relay's last answer to the child.
func (r *relayRig) lastAnswer() wire.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.answers) == 0 {
		r.t.Fatal("the relay never answered the child")
	}
	return r.answers[len(r.answers)-1]
}

// TestReadThroughCompletesOnce ends a parked ReadThrough on each path that
// can end one, then sends the parent's late answer, and checks that the
// fetch completed exactly once, as that path says, and that the child got
// one answer to match.
func TestReadThroughCompletesOnce(t *testing.T) {
	paths := []struct {
		name string
		ok   bool
		end  func(r *relayRig)
	}{
		{"answer", true, func(r *relayRig) { r.answer("k", 1, false) }},
		{"ReadFail", false, func(r *relayRig) {
			if err := send(r.peer, wire.Message{Kind: wire.KindReadFail, Key: "k"}); err != nil {
				r.t.Fatal(err)
			}
		}},
		{"Suspend", false, func(r *relayRig) { r.up.Suspend() }},
		{"Disconnect", false, func(r *relayRig) { r.up.Disconnect() }},
		{"answer after disowned", true, func(r *relayRig) {
			// A WriteProp for a key up does not hold re-asserts the
			// deallocation, which disowns the parked read: its answer
			// completes it but places no copy.
			if err := send(r.peer, wire.Message{Kind: wire.KindWriteProp, Key: "k", Value: []byte("w"), Version: 1}); err != nil {
				r.t.Fatal(err)
			}
			r.answer("k", 1, true)
			if r.up.HasCopy("k") {
				r.t.Error("a disowned answer placed a copy")
			}
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			r := newRelayRig(t)
			r.read("k", 0)
			if got := r.completions("k"); len(got) != 0 {
				t.Fatalf("the fetch completed %v before its answer", got)
			}
			p.end(r)
			// The parent's answer, late or duplicated, must find nothing.
			late := encodePooled(wire.Message{Kind: wire.KindReadResp, Key: "k", Value: []byte("late"), Version: 9})
			r.up.onFrame(late.B)
			wire.PutBuf(late)
			if got := r.completions("k"); len(got) != 1 || got[0] != p.ok {
				t.Fatalf("the fetch completed %v, want once with ok=%v", got, p.ok)
			}
			want := wire.KindReadFail
			if p.ok {
				want = wire.KindReadResp
			}
			if a := r.lastAnswer(); a.Kind != want || a.Key != "k" || len(r.answers) != 1 {
				t.Fatalf("the child got %d answers, the last %v %q, want one %v", len(r.answers), a.Kind, a.Key, want)
			}
		})
	}
	t.Run("failed send", func(t *testing.T) {
		r := newRelayRig(t)
		r.peer.Close()
		r.read("k", 0)
		if got := r.completions("k"); len(got) != 1 || got[0] {
			t.Fatalf("the fetch completed %v, want once with ok=false", got)
		}
		if a := r.lastAnswer(); a.Kind != wire.KindReadFail {
			t.Fatalf("the child got %v, want a ReadFail", a.Kind)
		}
	})
	t.Run("local copy", func(t *testing.T) {
		r := newRelayRig(t)
		r.read("k", 0)
		r.answer("k", 1, true) // places up's copy
		r.read("k", 1)
		r.read("k", 2) // below this floor the copy does not serve
		if got := r.completions("k"); len(got) != 2 {
			t.Fatalf("%d completions before the upstream answer, want 2", len(got))
		}
		r.answer("k", 2, false)
		if got := r.completions("k"); len(got) != 3 {
			t.Fatalf("the fetches completed %v, want three times", got)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if len(r.upSent) != 2 {
			t.Fatalf("up sent %d frames, want 2 ReadReqs", len(r.upSent))
		}
		var got []uint64
		for _, a := range r.answers {
			if a.Kind == wire.KindReadResp {
				got = append(got, a.Version)
			}
		}
		if fmt.Sprint(got) != "[1 1 2]" {
			t.Fatalf("the child's reads were answered at versions %v, want [1 1 2]", got)
		}
	})
}

// TestFetchBatchWithAFailedKey: a joint read through the relay whose
// middle key fails upstream completes each key's fetch once and answers
// nothing (to the child, a lost frame); the next joint read, on recycled
// records, gets exactly its own answers.
func TestFetchBatchWithAFailedKey(t *testing.T) {
	r := newRelayRig(t)
	keys := []string{"a", "b", "c"}
	ask := func() {
		buf, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadReq, Keys: keys, Versions: make([]uint64, len(keys))})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.child.Send(buf); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	r.answer("a", 1, false)
	if err := send(r.peer, wire.Message{Kind: wire.KindReadFail, Key: "b"}); err != nil {
		t.Fatal(err)
	}
	r.answer("c", 1, false)
	for _, k := range keys {
		if got, want := r.completions(k), []bool{k != "b"}; len(got) != 1 || got[0] != want[0] {
			t.Fatalf("the fetch of %s completed %v, want %v", k, got, want)
		}
	}
	if len(r.batches) != 0 {
		t.Fatalf("a batch with a failed key was answered: %+v", r.batches)
	}
	ask()
	for i, k := range keys {
		r.answer(k, uint64(2+i), false)
	}
	if len(r.batches) != 1 {
		t.Fatalf("%d answers to the second joint read, want 1", len(r.batches))
	}
	for i, e := range r.batches[0].Entries {
		if want := fmt.Sprintf("%s@%d", keys[i], 2+i); e.Key != keys[i] || string(e.Value) != want {
			t.Fatalf("entry %d = %s %q, want %s %q", i, e.Key, e.Value, keys[i], want)
		}
	}
}

// flakyLink delivers each frame sent through it after a random delay on
// its own goroutine, and refuses some sends outright: answers arrive
// before, during and after the reconnects that fail the reads they
// answer, and some reads fail at the send.
type flakyLink struct {
	transport.Link
	mu  sync.Mutex
	rng *rand.Rand
	wg  *sync.WaitGroup
}

func (l *flakyLink) Send(frame []byte) error {
	l.mu.Lock()
	d, refuse := time.Duration(l.rng.Intn(200))*time.Microsecond, l.rng.Intn(16) == 0
	l.mu.Unlock()
	if refuse {
		return transport.ErrClosed
	}
	f := append([]byte(nil), frame...)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		time.Sleep(d)
		_ = l.Link.Send(f)
	}()
	return nil
}

// TestRecycledFetchNeverTakesAnEarlierAnswer: children read a few shared
// keys through a relay whose parent face answers late, fails some sends
// and is reattached under them, so fetch records are completed by
// answers, by failed sends and by reconnects, recycled, and parked again
// for the same keys while older answers are in flight. Every child read
// must get its own key's value or a refusal, and every fetch must
// complete exactly once. Run under -race.
func TestRecycledFetchNeverTakesAnEarlierAnswer(t *testing.T) {
	root, err := NewServer(db.NewStore(), Static1())
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 6
	for i := 0; i < nkeys; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := root.Write(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	dial := func() transport.Link {
		a, b := transport.NewMemPair()
		root.Attach(a)
		return &flakyLink{Link: b, rng: rand.New(rand.NewSource(rng.Int63())), wg: &wg}
	}
	up, err := NewClient(dial(), Static1())
	if err != nil {
		t.Fatal(err)
	}
	up.SetTrackFloors(true)
	relay, err := NewServer(db.NewStore(), Static1())
	if err != nil {
		t.Fatal(err)
	}
	var started, completed atomic.Int64
	relay.SetOrigin(func(f *Fetch) {
		started.Add(1)
		up.ReadThrough(f)
	})
	up.SetReadThroughHandler(func(f *Fetch, it db.Item, ok bool) {
		completed.Add(1)
		if ok && string(it.Value) != f.Key() {
			t.Errorf("the fetch of %s completed with %q", f.Key(), it.Value)
		}
		if ok && it.Version > 0 {
			if _, err := relay.Apply(db.Item{Key: f.Key(), Value: it.Value, Version: it.Version}); err != nil {
				t.Error(err)
			}
		}
		f.Done(ok)
	})

	const children, reads = 4, 300
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Microsecond):
				up.Reattach(dial())
			}
		}
	}()
	var readers sync.WaitGroup
	var served, refused atomic.Int64
	for g := 0; g < children; g++ {
		a, b := transport.NewMemPair()
		relay.Attach(a)
		child, err := NewClient(b, Static1())
		if err != nil {
			t.Fatal(err)
		}
		child.Timeout = 10 * time.Second
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < reads; i++ {
				key := fmt.Sprintf("k%d", (g+i)%nkeys)
				it, err := child.Read(key)
				switch {
				case err == nil && string(it.Value) == key:
					served.Add(1)
				case errors.Is(err, ErrOffline):
					refused.Add(1)
				default:
					t.Errorf("read %s = %q, %v", key, it.Value, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	chaos.Wait()
	wg.Wait()
	if served.Load() == 0 || refused.Load() == 0 {
		t.Fatalf("%d reads served, %d refused: the test needs both", served.Load(), refused.Load())
	}
	if s, c := started.Load(), completed.Load(); s != c {
		t.Fatalf("%d fetches started, %d completions", s, c)
	}
}

// gatedLink holds the next Send until the test releases it, then fails it.
type gatedLink struct {
	transport.Link
	entered, release chan struct{}
}

func (l *gatedLink) Send([]byte) error {
	close(l.entered)
	<-l.release
	return transport.ErrClosed
}

// TestFailedSendSparesARecycledFetch: a ReadThrough whose send fails may
// find its record already failed by a reconnect, recycled, and parked
// again for a later read of the same key. Cancelling its own read must
// leave that later one parked, to be completed by its own answer.
func TestFailedSendSparesARecycledFetch(t *testing.T) {
	r := newRelayRig(t)
	var seen []*Fetch
	r.up.SetReadThroughHandler(func(f *Fetch, it db.Item, ok bool) {
		r.mu.Lock()
		r.done[f.Key()] = append(r.done[f.Key()], ok)
		seen = append(seen, f)
		r.mu.Unlock()
		f.Done(ok)
	})
	dial := func() transport.Link {
		peer, up := transport.NewMemPair()
		peer.SetHandler(func([]byte) {})
		r.peer = peer
		return up
	}
	gated := &gatedLink{Link: dial(), entered: make(chan struct{}), release: make(chan struct{})}
	r.up.Reattach(gated)
	first := make(chan struct{})
	go func() {
		defer close(first)
		_ = send(r.child, wire.Message{Kind: wire.KindReadReq, Key: "k"})
	}()
	<-gated.entered
	r.up.Reattach(dial()) // fails the first read, parked on the gated link
	r.read("k", 0)        // parks the second read, likely on the same record
	close(gated.release)
	<-first
	r.answer("k", 1, false)
	if got := r.completions("k"); fmt.Sprint(got) != "[false true]" {
		t.Fatalf("the two fetches completed %v, want [false true]", got)
	}
	if seen[0] != seen[1] {
		t.Log("the pool gave the second read a fresh record: the interleaving was not exercised")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.answers) != 2 || r.answers[0].Kind != wire.KindReadFail || r.answers[1].Kind != wire.KindReadResp {
		t.Fatalf("the child got %v, want a ReadFail then a ReadResp", r.answers)
	}
}
