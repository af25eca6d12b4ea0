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

// A relay reads a child's request through its parent face (gather) on a
// record the session's shard keeps, one waiter per key, which the child's
// answer recycles. These tests pin that every key resolves exactly once on
// every path that can end it, and that a recycled record never takes an
// answer meant for an earlier read.

// relayRig is a relay with one child. The test plays the parent (peer,
// the far end of the parent face's link) and the child (child, the far
// end of a session's link) frame by frame. Every completion of a child's
// singleton fetch is one answer to the child: a ReadResp when it
// completed ok, a ReadFail when it failed.
type relayRig struct {
	t     *testing.T
	up    *Client
	relay *Server
	sess  *Session // the child's session at the relay
	peer  transport.Link
	child transport.Link

	mu      sync.Mutex
	upSent  []wire.Message // what up sent its parent
	upJoint []wire.Batch   // the joint reads up sent its parent
	answers []wire.Message // what the relay sent the child
	batches []wire.Batch   // batch answers the relay sent the child
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	r := &relayRig{t: t}
	var upEnd transport.Link
	r.peer, upEnd = transport.NewMemPair()
	r.peer.SetHandler(r.record)
	var err error
	if r.relay, err = NewRelay(db.NewStore(), Static2(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if r.up, err = r.relay.ConnectParent(upEnd); err != nil {
		t.Fatal(err)
	}
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
	r.sess = r.relay.Attach(sessEnd)
	return r
}

// record notes a frame up sent its parent.
func (r *relayRig) record(frame []byte) {
	if wire.IsBatchFrame(frame) {
		b, err := wire.DecodeBatch(frame)
		if err != nil {
			r.t.Errorf("up sent a bad batch: %v", err)
			return
		}
		r.mu.Lock()
		r.upJoint = append(r.upJoint, b)
		r.mu.Unlock()
		return
	}
	msg, err := wire.DecodeBorrowed(frame)
	if err != nil {
		r.t.Errorf("up sent a bad frame: %v", err)
		return
	}
	r.mu.Lock()
	r.upSent = append(r.upSent, msg.Clone())
	r.mu.Unlock()
}

// idOf returns the id of up's last read request for key.
func (r *relayRig) idOf(key string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.upSent) - 1; i >= 0; i-- {
		if m := r.upSent[i]; m.Kind == wire.KindReadReq && m.Key == key {
			return m.ID
		}
	}
	r.t.Fatalf("up never asked for %s", key)
	return 0
}

// resolve resolves every key of a child's request held by a holdFetch
// hook, each ok or failed, as the parent face would.
func resolve(r *request, ok bool) {
	for range r.ws {
		r.done(ok)
	}
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

// answer has the parent answer up's last read of key at version v.
func (r *relayRig) answer(key string, v uint64, allocate bool) {
	r.t.Helper()
	m := wire.Message{Kind: wire.KindReadResp, Key: key, Value: []byte(fmt.Sprintf("%s@%d", key, v)), Version: v, Allocate: allocate, ID: r.idOf(key)}
	if err := send(r.peer, m); err != nil {
		r.t.Fatal(err)
	}
}

// answerJoint has the parent answer up's last joint read with entries.
func (r *relayRig) answerJoint(entries ...wire.Entry) {
	r.t.Helper()
	r.mu.Lock()
	if len(r.upJoint) == 0 {
		r.mu.Unlock()
		r.t.Fatal("up never sent a joint read")
	}
	id := r.upJoint[len(r.upJoint)-1].ID
	r.mu.Unlock()
	frame, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadResp, ID: id, Entries: entries})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.peer.Send(frame); err != nil {
		r.t.Fatal(err)
	}
}

// entry is the parent's answer for key at version v.
func entry(key string, v uint64) wire.Entry {
	return wire.Entry{Key: key, Value: []byte(fmt.Sprintf("%s@%d", key, v)), Version: v}
}

// refuse has the parent refuse up's last read of key.
func (r *relayRig) refuse(key string) {
	r.t.Helper()
	if err := send(r.peer, wire.Message{Kind: wire.KindReadFail, Key: key, ID: r.idOf(key)}); err != nil {
		r.t.Fatal(err)
	}
}

// completions returns how the singleton fetches of key completed, in
// order: the relay's answers to the child.
func (r *relayRig) completions(key string) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	var got []bool
	for _, a := range r.answers {
		if a.Key == key && (a.Kind == wire.KindReadResp || a.Kind == wire.KindReadFail) {
			got = append(got, a.Kind == wire.KindReadResp)
		}
	}
	return got
}

// fetchCounts returns the relay fetch counters: completions served from
// the station's copy, through the parent, and failed.
func fetchCounts() [3]uint64 {
	return [3]uint64{mFetchLocal.Load(), mFetchParent.Load(), mFetchFailed.Load()}
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

// TestReadThroughCompletesOnce ends a child's read parked at the parent
// face on each path that can end one, then sends the parent's late answer, and checks that the
// fetch completed exactly once, as that path says, and that the child got
// one answer to match.
func TestReadThroughCompletesOnce(t *testing.T) {
	paths := []struct {
		name string
		ok   bool
		end  func(r *relayRig)
	}{
		{"answer", true, func(r *relayRig) { r.answer("k", 1, false) }},
		{"ReadFail", false, func(r *relayRig) { r.refuse("k") }},
		{"Suspend", false, func(r *relayRig) { r.up.Suspend() }},
		{"Disconnect", false, func(r *relayRig) { r.up.Disconnect() }},
		{"answer after disowned", true, func(r *relayRig) {
			// A WriteProp for a key up does not hold re-asserts the
			// deallocation, whose id is newer than the parked read's: its
			// answer completes it but places no copy.
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

// TestFetchBatchWithAFailedKey: a joint read through the relay goes up as
// one joint read. Its middle key carries a floor the parent's answer does
// not clear, so that key goes up again alone and the parent refuses it.
// Each key's fetch completes once, and the child's joint read is refused
// (an answer with no entries); the next joint read, on recycled records,
// gets exactly its own answers.
func TestFetchBatchWithAFailedKey(t *testing.T) {
	r := newRelayRig(t)
	keys := []string{"a", "b", "c"}
	ask := func(hints ...uint64) {
		buf, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadReq, Keys: keys, Versions: hints})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.child.Send(buf); err != nil {
			t.Fatal(err)
		}
	}
	before := fetchCounts()
	ask(0, 5, 0)
	r.answerJoint(entry("a", 1), entry("b", 1), entry("c", 1))
	r.refuse("b")
	// Each key's fetch completed once: a and c through the parent, whose
	// values the mirror holds, and b failed.
	if after := fetchCounts(); after[1]-before[1] != 2 || after[2]-before[2] != 1 || after[0] != before[0] {
		t.Fatalf("the fetches completed %v (local, parent, failed), want [0 2 1]",
			[3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]})
	}
	for _, k := range keys {
		if _, ok := r.relay.Store().Get(k); ok != (k != "b") {
			t.Fatalf("the mirror holds %s: %v, want %v", k, ok, k != "b")
		}
	}
	r.mu.Lock()
	if len(r.upJoint) != 1 || len(r.upSent) != 1 || r.upSent[0].Key != "b" || r.upSent[0].Version != 5 {
		t.Fatalf("up sent %d joint reads and %v, want one joint read and b's ReadReq at floor 5", len(r.upJoint), r.upSent)
	}
	if len(r.batches) != 1 || len(r.batches[0].Entries) != 0 {
		t.Fatalf("a batch with a failed key was answered %+v, want one refusal", r.batches)
	}
	r.mu.Unlock()
	ask()
	r.answerJoint(entry("a", 2), entry("b", 3), entry("c", 4))
	if len(r.batches) != 2 {
		t.Fatalf("%d answers to the second joint read, want 1", len(r.batches)-1)
	}
	for i, e := range r.batches[1].Entries {
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
// and is reattached under them, so records are resolved by answers, by
// failed sends and by reconnects, recycled, and parked again for the same
// keys while older answers are in flight. Every child read must get its
// own key's value or a refusal, and every key must resolve exactly once.
// Run under -race.
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
	relay, err := NewRelay(db.NewStore(), Static1(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, err := relay.ConnectParent(dial())
	if err != nil {
		t.Fatal(err)
	}
	before := fetchCounts()

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
	// Every child read is one fetch, as every child read misses under ST1.
	after := fetchCounts()
	if c := after[0] + after[1] + after[2] - before[0] - before[1] - before[2]; c != children*reads {
		t.Fatalf("%d fetches started, %d completions", children*reads, c)
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

// TestFailedSendSparesARecycledFetch: a read whose send fails may find
// its key already failed by a reconnect and a later read of the same key
// parked. Failing its own request must leave that later one parked, to be
// completed by its own answer.
func TestFailedSendSparesARecycledFetch(t *testing.T) {
	r := newRelayRig(t)
	var seen []*request
	r.relay.holdFetch = func(q *request) {
		r.mu.Lock()
		seen = append(seen, q)
		r.mu.Unlock()
		r.up.gather(q.chain(), false)
	}
	dial := func() transport.Link {
		peer, up := transport.NewMemPair()
		peer.SetHandler(r.record)
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
	if seen[0] == seen[1] {
		t.Error("the second read reused the record of a read not yet answered")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.answers) != 2 || r.answers[0].Kind != wire.KindReadFail || r.answers[1].Kind != wire.KindReadResp {
		t.Fatalf("the child got %v, want a ReadFail then a ReadResp", r.answers)
	}
}
