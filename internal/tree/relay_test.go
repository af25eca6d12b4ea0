package tree

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// A child's read through a relay rides one pooled fetch record from the
// child face, through the parent face's parked reads, and back. These
// tests pin what that buys — a relay hop allocates nothing — and how the
// hop is observed: the fetch labels and the parent edge's meter.

// chainReader builds Chain(n) over in-memory links in mode, attaches an
// MC at its leaf, writes k at the root and returns a read of k by the MC
// that checks the value against the root's newest write.
func chainReader(tb testing.TB, n int, mode replica.Mode) (read func(), write func(), mc *MC) {
	tb.Helper()
	tr, err := Build(Chain(n), db.NewStore(), mode, 1, Policy{}, memConnect)
	if err != nil {
		tb.Fatal(err)
	}
	a, b := transport.NewMemPair()
	mc, err = tr.AttachMC(n-1, a, b)
	if err != nil {
		tb.Fatal(err)
	}
	root := tr.Stations[0].Server()
	want := bytes.Repeat([]byte{7}, 128)
	write = func() {
		want[0]++
		if _, err := root.Write("k", want); err != nil {
			tb.Fatal(err)
		}
	}
	read = func() {
		it, err := mc.Client.Read("k")
		if err != nil || !bytes.Equal(it.Value, want) {
			tb.Fatalf("read = %q, %v", it.Value, err)
		}
	}
	write()
	return read, write, mc
}

// TestRelayReadThroughAllocs pins an ST1 miss at the leaf of Chain(3),
// which crosses two relays, at the pair's one allocation (the value the
// MC returns, TestClientRemoteReadAllocs): a relay's read-through
// allocates nothing, also when a root write makes every relay apply the
// new version and raise its floor.
func TestRelayReadThroughAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	read, write, _ := chainReader(t, 3, replica.Static1())
	for i := 0; i < 8; i++ {
		write()
		read() // warm the pools and every station's per-key state
	}
	if allocs := testing.AllocsPerRun(500, read); allocs > 1 {
		t.Errorf("a miss through two relays allocated %.1f times per run, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { write(); read() }); allocs > 1 {
		t.Errorf("a root write and a miss through two relays allocated %.1f times per run, want at most 1", allocs)
	}

	// ST2 at Chain(2): the relay holds k, and the MC gives its copy up
	// after each read, so its next read is served from the relay's own
	// copy. That copy is read out, not lent, so the root's next write
	// overwrites the relay's buffer in place: the run allocates only the
	// value the MC returns.
	read, write, mc := chainReader(t, 2, replica.Static2())
	cycle := func() {
		read()
		mc.Client.DropCopy("k")
		write()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	local := obs.Default().Counter(`mobirep_tree_fetches_total{result="local"}`, "")
	before := local.Load()
	if allocs := testing.AllocsPerRun(500, cycle); allocs > 1 {
		t.Errorf("a read through the relay's own copy and a root write allocated %.1f times per run, want at most 1", allocs)
	}
	if n := local.Load() - before; n != 501 {
		t.Errorf("%d of 501 reads were served from the relay's own copy", n)
	}
}

// BenchmarkRelayReadThrough times an ST1 miss by an MC at the leaf of a
// chain of 1 (the pair), 2 and 3 stations over in-memory links.
func BenchmarkRelayReadThrough(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			read, _, _ := chainReader(b, n, replica.Static1())
			read()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}

// readReqCounter counts the ReadReq frames sent through a link.
type readReqCounter struct {
	transport.Link
	n *atomic.Int64
}

func (l readReqCounter) Send(frame []byte) error {
	if msg, err := wire.DecodeBorrowed(frame); err == nil && msg.Kind == wire.KindReadReq {
		l.n.Add(1)
	}
	return l.Link.Send(frame)
}

// propDropper drops the WriteProps sent through a link while on is set.
type propDropper struct {
	transport.Link
	on *atomic.Bool
}

func (l propDropper) Send(frame []byte) error {
	if msg, err := wire.DecodeBorrowed(frame); err == nil && msg.Kind == wire.KindWriteProp && l.on.Load() {
		return nil
	}
	return l.Link.Send(frame)
}

// TestFetchLabelsCountUpstreamFrames: a relay counts a fetch as "parent"
// exactly when its parent face sent a ReadReq for it. The reads include
// one whose station holds a copy below the reader's floor, which goes
// upstream although the station holds the key.
func TestFetchLabelsCountUpstreamFrames(t *testing.T) {
	var sent atomic.Int64
	var drop atomic.Bool
	connect := func(child, parent int) (transport.Link, transport.Link, error) {
		a, b := transport.NewMemPair()
		var down transport.Link = b
		if child == 2 {
			down = propDropper{b, &drop}
		}
		return readReqCounter{a, &sent}, down, nil
	}
	tr, err := Build(Chain(3), db.NewStore(), replica.Static2(), 1, Policy{}, connect)
	if err != nil {
		t.Fatal(err)
	}
	counter := func(result string) uint64 {
		return obs.Default().Counter(`mobirep_tree_fetches_total{result="`+result+`"}`, "").Load()
	}
	local0, parent0 := counter("local"), counter("parent")
	root := tr.Stations[0].Server()
	read := func(mc *MC, want uint64) {
		t.Helper()
		if it, err := mc.Client.Read("k"); err != nil || it.Version != want {
			t.Fatalf("read at station %d = v%d, %v; want v%d", mc.Station(), it.Version, err, want)
		}
	}
	if _, err := root.Write("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The ST2 read places copies at both relays and at the MC.
	read(attachTestMC(t, tr, 2), 1)

	// v2 reaches station 1 but not station 2, whose copy stays at v1.
	drop.Store(true)
	if _, err := root.Write("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	drop.Store(false)

	// A second MC learns v2 from station 1's own copy, gives its copy
	// up, and moves to station 2 holding nothing but its floor: its read
	// there finds station 2's copy below the floor and goes upstream.
	mc := attachTestMC(t, tr, 1)
	read(mc, 2)
	mc.Client.DropCopy("k")
	a, b := transport.NewMemPair()
	if _, err := mc.Handoff(2, a, b); err != nil {
		t.Fatal(err)
	}
	read(mc, 2)

	local, parent := counter("local")-local0, counter("parent")-parent0
	if parent != uint64(sent.Load()) {
		t.Errorf(`result="parent" counted %d fetches, the relays' parent faces sent %d ReadReqs`, parent, sent.Load())
	}
	// Upstream: both relays on the first read, station 2 on the last.
	// Local: station 1 for both of the second MC's reads.
	if local != 2 || parent != 3 {
		t.Errorf("fetches counted local %d, parent %d; want 2 and 3", local, parent)
	}
}

// frameCounter counts the frames, and their bytes, sent through a link.
type frameCounter struct {
	transport.Link
	frames, bytes *atomic.Int64
}

func (l frameCounter) Send(frame []byte) error {
	l.frames.Add(1)
	l.bytes.Add(int64(len(frame)))
	return l.Link.Send(frame)
}

// TestParentSessionMetersItsEdge: each relay's session at its parent
// meters every frame, and every byte, that the parent sent down the
// relay's parent edge — a read's answer and the writes it propagated.
func TestParentSessionMetersItsEdge(t *testing.T) {
	var frames, sizes [3]atomic.Int64
	connect := func(child, parent int) (transport.Link, transport.Link, error) {
		a, b := transport.NewMemPair()
		return a, frameCounter{b, &frames[child], &sizes[child]}, nil
	}
	tr, err := Build(Chain(3), db.NewStore(), replica.Static2(), 1, Policy{}, connect)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ParentSession(0) != nil {
		t.Fatal("the root has a parent session")
	}
	mc := attachTestMC(t, tr, 2)
	root := tr.Stations[0].Server()
	const writes = 3
	for i := 0; i <= writes; i++ {
		if _, err := root.Write("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := mc.Client.Read("k"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < 3; i++ {
		m := tr.ParentSession(i).Meter().Snapshot()
		if m.DataMsgs != 1+writes || m.ControlMsgs != 0 {
			t.Errorf("station %d's parent session metered %d data and %d control messages, want %d and 0",
				i, m.DataMsgs, m.ControlMsgs, 1+writes)
		}
		if n := m.DataMsgs + m.ControlMsgs; n != int(frames[i].Load()) || m.Bytes != int(sizes[i].Load()) {
			t.Errorf("station %d's parent session metered %d frames of %d bytes, its edge carried %d of %d",
				i, n, m.Bytes, frames[i].Load(), sizes[i].Load())
		}
	}
}

// TestRelayStoreMirrorsARead: after a leaf MC's read through two relays,
// each relay's Store holds the root's value at the root's version.
func TestRelayStoreMirrorsARead(t *testing.T) {
	tr, err := Build(Chain(3), db.NewStore(), replica.Static1(), 1, Policy{}, memConnect)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Stations[0].Server()
	if _, err := root.Write("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	want, err := root.Write("k", []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Stations[1].Store().Get("k"); ok {
		t.Fatal("relay 1's store holds k before any read")
	}
	mc := attachTestMC(t, tr, 2)
	if _, err := mc.Client.Read("k"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		got, ok := tr.Stations[i].Store().Get("k")
		if !ok || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("relay %d's store holds %q at version %d (ok=%v), want %q at %d",
				i, got.Value, got.Version, ok, want.Value, want.Version)
		}
	}
}
