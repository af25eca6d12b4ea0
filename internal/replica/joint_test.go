package replica

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// A relay reads every key of a child's joint read that its own copies
// cannot serve in one joint read through its parent face (gather), and
// resolves each key from that one answer by the singleton rules
// (onAnswer). These tests pin the frames a warm handoff costs on each
// edge, the singleton fallback below a floor, and what a warm resync and
// a forwarded joint read allocate.

// kindCounter counts the frames sent through a link, by kind.
type kindCounter struct {
	transport.Link
	n [32]atomic.Int64
}

func (l *kindCounter) Send(frame []byte) error {
	if k, ok := wire.FrameKind(frame); ok && int(k) < len(l.n) {
		l.n[k].Add(1)
	}
	return l.Link.Send(frame)
}

// frames returns the counts of the kinds that make up a read, in the
// order ReadReq, ReadResp, MultiReadReq, MultiReadResp.
func (l *kindCounter) frames() [4]int64 {
	return [4]int64{l.n[wire.KindReadReq].Load(), l.n[wire.KindReadResp].Load(),
		l.n[wire.KindMultiReadReq].Load(), l.n[wire.KindMultiReadResp].Load()}
}

// memTree is a replica tree built by hand over in-memory links, so tests
// can reach into its stations: station 0 is the root and station i a
// relay below parents[i], or a relay with no parent face when that is -1.
// up[i] counts what station i's parent face sends its parent, and down[i]
// what its session there sends it.
type memTree struct {
	t        testing.TB
	stations []*Server
	up, down []*kindCounter
}

func newMemTree(t testing.TB, parents []int, mode Mode) *memTree {
	t.Helper()
	tr := &memTree{t: t, up: make([]*kindCounter, len(parents)), down: make([]*kindCounter, len(parents))}
	root, err := NewServerShards(db.NewStore(), mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.stations = append(tr.stations, root)
	for i := 1; i < len(parents); i++ {
		s, err := NewRelay(db.NewStore(), mode, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.stations = append(tr.stations, s)
		if parents[i] < 0 {
			continue
		}
		childEnd, parentEnd := transport.NewMemPair()
		tr.up[i], tr.down[i] = &kindCounter{Link: childEnd}, &kindCounter{Link: parentEnd}
		tr.stations[parents[i]].Attach(tr.down[i])
		if _, err := s.ConnectParent(tr.up[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// edge returns the frames on station i's parent edge: ReadReq and
// MultiReadReq going up, ReadResp and MultiReadResp coming down.
func (tr *memTree) edge(i int) [4]int64 {
	up, down := tr.up[i].frames(), tr.down[i].frames()
	return [4]int64{up[0], down[1], up[2], down[3]}
}

// mc attaches a client at station st.
func (tr *memTree) mc(st int, mode Mode) (*Client, *Session) {
	tr.t.Helper()
	a, b := transport.NewMemPair()
	sess := tr.stations[st].Attach(b)
	c, err := NewClient(a, mode)
	if err != nil {
		tr.t.Fatal(err)
	}
	return c, sess
}

// handoff moves c from sess to station to with a warm resync, which the
// in-memory links finish before it returns.
func (tr *memTree) handoff(c *Client, sess *Session, to int) *Session {
	tr.t.Helper()
	c.Suspend()
	sess.Detach()
	a, b := transport.NewMemPair()
	sess = tr.stations[to].Attach(b)
	done, err := c.ResumeResync(a)
	if err != nil {
		tr.t.Fatal(err)
	}
	select {
	case <-done:
	default:
		tr.t.Fatalf("the resync at station %d was not answered", to)
	}
	if c.Offline() {
		tr.t.Fatalf("the resync at station %d left the client offline", to)
	}
	return sess
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}

// TestWarmHandoffFrames: an MC holding N keys hands off to a leaf that
// holds none of them. The leaf's resync reads them all through one joint
// read per edge, up to the station whose own copies serve every key, and
// no key goes up alone. In the lag row station 2 serves key k000 from a
// mirror a write passed by (its holdFetch skips the freshening), below
// the MC's declared version: that one key goes up again from the leaf as
// a singleton, and the MC's copy ends at the root's version.
func TestWarmHandoffFrames(t *testing.T) {
	const n = 24
	chain3 := []int{-1, 0, 1}
	binary7 := []int{-1, 0, 0, 1, 1, 2, 2}
	one := [4]int64{0, 0, 1, 1} // one joint read, no singleton
	none := [4]int64{}
	rows := []struct {
		name     string
		parents  []int
		from, to int
		lag      bool
		want     map[int][4]int64 // frames on station i's parent edge during the handoff
	}{
		{"Chain(3)", chain3, 1, 2, false, map[int][4]int64{2: one, 1: none}},
		{"Binary(7)", binary7, 3, 5, false, map[int][4]int64{5: one, 2: one, 1: none, 3: none}},
		{"Binary(7) lagging station", binary7, 3, 5, true, map[int][4]int64{5: {1, 1, 1, 1}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tr := newMemTree(t, row.parents, Static2())
			root := tr.stations[0]
			keys := testKeys(n)
			for _, k := range keys {
				if _, err := root.Write(k, []byte(k+"@1")); err != nil {
					t.Fatal(err)
				}
			}
			if row.lag {
				// Station 2's mirror takes k000 at v1 through a read, then
				// gives its copy up, so v2 passes it by.
				other, _ := tr.mc(row.to, Static2())
				if _, err := other.Read("k000"); err != nil {
					t.Fatal(err)
				}
				tr.stations[2].Parent().DropCopy("k000")
				if _, err := root.Write("k000", []byte("k000@2")); err != nil {
					t.Fatal(err)
				}
				st := tr.stations[2]
				st.holdFetch = func(r *request) {
					todo, joint := r.chain(), r.b.Kind != wire.KindReadReq
					if joint && todo.key == "k000" {
						todo = todo.next
						r.done(true) // served from the mirror as it stands
					}
					st.Parent().gather(todo, joint)
				}
			}
			c, sess := tr.mc(row.from, Static2())
			for _, k := range keys {
				if _, err := c.Read(k); err != nil {
					t.Fatal(err)
				}
			}
			before := make(map[int][4]int64)
			var sent int64 // joint reads sent up any edge
			for i := range row.want {
				before[i] = tr.edge(i)
			}
			for i := 1; i < len(row.parents); i++ {
				sent -= tr.edge(i)[2]
			}
			joint := mJointReads.Load()
			tr.handoff(c, sess, row.to)
			for i := 1; i < len(row.parents); i++ {
				sent += tr.edge(i)[2]
			}
			if got := int64(mJointReads.Load() - joint); got != sent {
				t.Errorf("mobirep_tree_upstream_joint_reads_total counted %d, the relays sent %d joint reads", got, sent)
			}
			for i, want := range row.want {
				got, b := tr.edge(i), before[i]
				for j := range got {
					got[j] -= b[j]
				}
				if got != want {
					t.Errorf("station %d's parent edge carried %v (ReadReq, ReadResp, MultiReadReq, MultiReadResp), want %v", i, got, want)
				}
			}
			for _, k := range keys {
				want, _ := root.Store().Get(k)
				if it, ok := c.Cache().Peek(k); !ok || it.Version != want.Version || string(it.Value) != string(want.Value) {
					t.Errorf("the MC holds %s at v%d %q (held %v), the root v%d %q", k, it.Version, it.Value, ok, want.Version, want.Value)
				}
			}
		})
	}
}

// TestReadFrameForms: a read crosses every edge of Chain(3), the MC's
// own included, in the form it was asked. A singleton miss is one ReadReq
// and one ReadResp per edge, refused for want of a parent face (station 1
// has none) it is one ReadFail per edge and no MultiReadResp, and a
// ReadMany of one missing key is one MultiReadReq and one MultiReadResp.
func TestReadFrameForms(t *testing.T) {
	rows := []struct {
		name    string
		parents []int
		many    bool
		want    [5]int64 // ReadReq, ReadResp, MultiReadReq, MultiReadResp, ReadFail
	}{
		{"singleton miss", []int{-1, 0, 1}, false, [5]int64{1, 1, 0, 0, 0}},
		{"singleton refused", []int{-1, -1, 1}, false, [5]int64{1, 0, 0, 0, 1}},
		{"ReadMany of one missing key", []int{-1, 0, 1}, true, [5]int64{0, 0, 1, 1, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tr := newMemTree(t, row.parents, Static1())
			if _, err := tr.stations[0].Write("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			a, b := transport.NewMemPair()
			mcUp, mcDown := &kindCounter{Link: a}, &kindCounter{Link: b}
			tr.stations[2].Attach(mcDown)
			mc, err := NewClient(mcUp, Static1())
			if err != nil {
				t.Fatal(err)
			}
			if row.many {
				_, err = mc.ReadMany([]string{"k"})
			} else {
				_, err = mc.Read("k")
			}
			if refused := row.want[4] > 0; refused != errors.Is(err, ErrOffline) || !refused && err != nil {
				t.Fatalf("the read returned %v", err)
			}
			edges := map[string][2]*kindCounter{"MC": {mcUp, mcDown}}
			for i := 1; i < len(row.parents); i++ {
				if row.parents[i] >= 0 {
					edges[fmt.Sprintf("station %d", i)] = [2]*kindCounter{tr.up[i], tr.down[i]}
				}
			}
			for name, e := range edges {
				up, down := e[0], e[1]
				got := [5]int64{up.n[wire.KindReadReq].Load(), down.n[wire.KindReadResp].Load(),
					up.n[wire.KindMultiReadReq].Load(), down.n[wire.KindMultiReadResp].Load(), down.n[wire.KindReadFail].Load()}
				if got != row.want {
					t.Errorf("%s's parent edge carried %v (ReadReq, ReadResp, MultiReadReq, MultiReadResp, ReadFail), want %v", name, got, row.want)
				}
			}
		})
	}
}

// TestBatchKeptPastItsHandler: a relay keeps the child's batch until its
// keys resolve, after the handler has returned and the frame's buffer has
// been reused; the answer still names the keys asked.
func TestBatchKeptPastItsHandler(t *testing.T) {
	r := newRelayRig(t)
	var held []*request
	r.relay.holdFetch = func(q *request) { held = append(held, q) }
	keys := []string{"alpha", "beta", "gamma"}
	frame, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadReq, ID: 7, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	r.sess.onFrame(frame)
	for i := range frame {
		frame[i] = 'x'
	}
	if len(held) != 1 || len(held[0].ws) != len(keys) {
		t.Fatalf("%d requests held, want one of %d keys", len(held), len(keys))
	}
	resolve(held[0], true)
	if len(r.batches) != 1 || len(r.batches[0].Entries) != len(keys) {
		t.Fatalf("the child got %+v, want one answer of %d entries", r.batches, len(keys))
	}
	for i, e := range r.batches[0].Entries {
		if e.Key != keys[i] {
			t.Errorf("entry %d names %q, want %q", i, e.Key, keys[i])
		}
	}
}

// mallocs runs f and returns what it allocated.
func mallocs(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestWarmResyncAllocs pins a warm handoff's cost to the heap at a
// constant in the number of keys the MC holds: 16, 64 or 256, the MC and
// every station together allocate the same. The MC moves between two
// leaves below one relay (root, relay 1, leaves 2 and 3); each leaf gives
// its copies up once the MC has left, so every arrival reads all the keys
// through one joint read that relay 1's copies serve. Its second pin is a
// joint read that crosses two relays to the root (ST1: no station holds
// a copy), which allocates the values the MC returns and a constant.
func TestWarmResyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	// A collection empties the pools, and a move to another P meets that
	// P's own pool caches, either of which would charge refills to
	// whichever run it fell in: the pins count what the code allocates.
	// The counts are the process's, so a collection a previous test's
	// garbage is due for runs now, and the runtime's work after it
	// (cleanups, finalizers) gets time to finish before the warm-up.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	const rounds = 8
	var handoff, joint []float64
	for _, n := range []int{16, 64, 256} {
		keys := testKeys(n)
		tr := newMemTree(t, []int{-1, 0, 1, 1}, Static2())
		for _, k := range keys {
			if _, err := tr.stations[0].Write(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		c, sess := tr.mc(2, Static2())
		for _, k := range keys {
			if _, err := c.Read(k); err != nil {
				t.Fatal(err)
			}
		}
		at := 2
		move := func() {
			left := at
			at = 5 - at
			sess = tr.handoff(c, sess, at)
			for _, k := range keys {
				tr.stations[left].Parent().DropCopy(k)
			}
		}
		for i := 0; i < 4; i++ {
			move() // both leaves have met the session and the keys
		}
		var total uint64
		for i := 0; i < rounds; i++ {
			c.Suspend()
			sess.Detach()
			a, b := transport.NewMemPair()
			total += mallocs(func() {
				sess = tr.stations[5-at].Attach(b)
				if _, err := c.ResumeResync(a); err != nil {
					t.Fatal(err)
				}
			})
			left := at
			at = 5 - at
			for _, k := range keys {
				tr.stations[left].Parent().DropCopy(k)
			}
			if c.Offline() {
				t.Fatal("the resync left the client offline")
			}
		}
		handoff = append(handoff, float64(total)/rounds)

		st1 := newMemTree(t, []int{-1, 0, 1}, Static1())
		for _, k := range keys {
			if _, err := st1.stations[0].Write(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		mc, _ := st1.mc(2, Static1())
		read := func() {
			if items, err := mc.ReadMany(keys); err != nil || len(items) != n || items[n-1].Key != keys[n-1] {
				t.Fatalf("ReadMany = %d items, %v", len(items), err)
			}
		}
		for i := 0; i < 4; i++ {
			read()
		}
		joint = append(joint, testing.AllocsPerRun(rounds, read)-float64(n))
	}
	for i := 1; i < len(handoff); i++ {
		if handoff[i] != handoff[0] {
			t.Errorf("a warm handoff allocated %v for 16, 64 and 256 held keys, want the same for each", handoff)
			break
		}
	}
	for i := 1; i < len(joint); i++ {
		if joint[i] != joint[0] {
			t.Errorf("a joint read through two relays allocated %v beyond its values for 16, 64 and 256 keys, want the same for each", joint)
			break
		}
	}
	t.Logf("warm handoff: %v allocations; joint read through two relays: %v beyond the values", handoff, joint)
}

// TestReadManyAllocs pins a joint read's own cost at the MC: one
// allocation per key, the value it returns, plus a constant, with
// duplicated keys asked once.
func TestReadManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	for _, n := range []int{16, 256} {
		cli, srv, _ := pair(t, Static1())
		keys := testKeys(n)
		for _, k := range keys {
			if _, err := srv.Write(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		asked := append(append([]string(nil), keys...), keys[:n/2]...)
		read := func() {
			items, err := cli.ReadMany(asked)
			if err != nil || string(items[n].Value) != keys[0] {
				t.Fatalf("ReadMany = %v", err)
			}
		}
		read()
		if per := testing.AllocsPerRun(20, read) - float64(n); per > 12 {
			t.Errorf("a joint read of %d keys allocated %.0f beyond its values, want at most 12", n, per)
		}
	}
}

// TestJointReadRefusal: a relay whose fetch fails refuses the joint read
// it serves with an empty answer, so a relay below fails its joint
// read's fetches at once instead of keeping them parked, and an MC's
// ReadMany fails with ErrOffline. Station 1 of Chain(3) stands for a
// relay whose parent link is down: it fails every fetch. A relay whose
// own joint read cannot be sent fails and refuses the same way.
func TestJointReadRefusal(t *testing.T) {
	tr := newMemTree(t, []int{-1, 0, 1}, Static1())
	keys := testKeys(4)
	for _, k := range keys {
		if _, err := tr.stations[0].Write(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	tr.stations[1].holdFetch = func(r *request) { resolve(r, false) }
	mc, _ := tr.mc(2, Static1())
	mc.Timeout = 5 * time.Second
	failed := mFetchFailed.Load()
	if _, err := mc.ReadMany(keys); !errors.Is(err, ErrOffline) {
		t.Fatalf("ReadMany through a refusing relay = %v, want ErrOffline", err)
	}
	if n := mFetchFailed.Load() - failed; n != uint64(len(keys)) {
		t.Errorf("station 2 failed %d fetches, want %d", n, len(keys))
	}
	for _, k := range keys {
		if tr.stations[2].Parent().AwaitingRead(k) {
			t.Errorf("station 2 still waits on %s", k)
		}
	}
	if got := tr.edge(2); got != [4]int64{0, 0, 1, 1} {
		t.Errorf("station 2's parent edge carried %v, want one joint read and its refusal", got)
	}

	// A joint read whose send fails is failed the same way.
	r := newRelayRig(t)
	r.peer.Close()
	frame, err := wire.AppendEncodeBatch(nil, wire.Batch{Kind: wire.KindMultiReadReq, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	failed = mFetchFailed.Load()
	if err := r.child.Send(frame); err != nil {
		t.Fatal(err)
	}
	if n := mFetchFailed.Load() - failed; n != uint64(len(keys)) || len(r.batches) != 1 || len(r.batches[0].Entries) != 0 {
		t.Errorf("a joint read that could not be sent failed %d fetches and answered %+v, want %d and one refusal", n, r.batches, len(keys))
	}
}
