package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

// tree7_roam: a complete binary tree of seven stations, SW5 on every
// edge and as every relay's placement policy, every edge — station to
// station and MC to leaf — a loopback TCP connection. Each MC issues one
// operation at a time: 80 % reads and 20 % writes at the root, four in
// five of either on its 64 hot keys and the rest spread over every key
// (reads) or every key it owns (writes), and it hands off to the next
// leaf every 500 operations. Hot keys get allocated, travel with the MC
// and flip under its writes; cold reads miss on every edge up to the
// root.
//
// A write is complete when Write returned and the MC's root path is
// quiet again: every frame the write set off, down to the MC and back up
// (delete-requests of copies it made flip), has been handled. So an MC
// never has two requests on one key in flight, and it hands off with
// every copy it holds current. The workload needs that: over real TCP,
// where a relay's child and parent links deliver on different
// goroutines, the product has defects that overlapping requests on one
// key trip (README.md, "Defects the tree workload steps around"). The
// read checks and verify catch them should they show anyway.
type treeRoam struct {
	o      *options
	tr     *tracer
	lb     *loopback
	topo   tree.Topology
	tree   *tree.Tree
	root   *replica.Server
	leaves []int
	keys   []string
	edges  []edge // edges[i] joins station i to its parent
	mcs    []*roamer
	cts    []*connTrace

	begin, end     passCounters
	depth0, depth1 [4]int // protocol messages by edge depth around the pass
}

type roamer struct {
	mc      *tree.MC
	edge    edge // the MC's link to its current leaf
	rng     *stats.RNG
	own     []int    // keys this MC writes; the first treeHotKeys are its hot keys
	version []uint64 // last version written, by key (own keys only)
	seen    []uint64 // highest version read, by key
	buf     []byte
	ops     int
	leaf    int                   // index into treeRoam.leaves
	past    replica.MeterSnapshot // meters of the sessions handoffs left behind
	moves   int
	cold    int
	timer   *time.Timer
}

// countedLink is the one wrapper the tree workload keeps on its links in
// the timed pass too: it counts the frames an end sent and the frames it
// has finished handling, which is all a driver needs to know that a path
// is quiet. Two atomic adds a frame.
type countedLink struct {
	transport.Link
	sent    atomic.Uint64 // frames accepted by Send, counted at entry
	handled atomic.Uint64 // frames whose handler has returned
	poke    chan struct{} // receives after a frame was handled, if a waiter is slow to look
}

func newCountedLink(l transport.Link) *countedLink {
	return &countedLink{Link: l, poke: make(chan struct{}, 1)}
}

func (l *countedLink) Send(frame []byte) error {
	l.sent.Add(1)
	err := l.Link.Send(frame)
	if err != nil {
		l.sent.Add(^uint64(0))
	}
	return err
}

func (l *countedLink) SetHandler(h transport.Handler) {
	if h == nil {
		l.Link.SetHandler(nil)
		return
	}
	l.Link.SetHandler(func(frame []byte) {
		h(frame)
		l.handled.Add(1)
		select {
		case l.poke <- struct{}{}:
		default:
		}
	})
}

// edge is one loopback connection of the tree: down is the child's (or
// MC's) end, up the parent's.
type edge struct {
	down, up end
}

// end is one end of an edge: the link handed to the product (the tap
// when traced, else the counter), the counter, the TCP link under it,
// and the tap.
type end struct {
	link  transport.Link
	count *countedLink
	tcp   *transport.TCPLink
	tap   *tap
}

var treeRoamWorkload = netWorkload{name: "tree7_roam", primary: opRead, build: buildTreeRoam}

func buildTreeRoam(o *options, tr *tracer) (instance, error) {
	sz := o.sz
	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	w := &treeRoam{o: o, tr: tr, lb: lb, topo: tree.Binary(sz.treeStations), keys: make([]string, sz.treeKeys)}
	w.edges = make([]edge, w.topo.N())
	mode := replica.SW(sz.treeK)
	connect := func(child, parent int) (transport.Link, transport.Link, error) {
		e, err := w.connect(true, parent == 0)
		if err != nil {
			return nil, nil, err
		}
		// tree.Build attaches the parent end itself, so it cannot be
		// started after the attach the way the server binary does; it
		// carries no frame until the child speaks, which is after Build.
		e.up.tcp.Start(nil)
		w.edges[child] = e
		return e.down.link, e.up.link, nil
	}
	w.tree, err = tree.Build(w.topo, db.NewStore(), mode, serverShards, tree.Policy{Kind: tree.PolicySW, K: sz.treeK}, connect)
	if err != nil {
		lb.close()
		return nil, err
	}
	w.root = w.tree.Stations[0].Server()
	w.leaves = w.topo.Leaves()
	fail := func(err error) (instance, error) {
		w.close()
		return nil, err
	}

	buf := make([]byte, sz.treeValue)
	for i := range w.keys {
		w.keys[i] = keyName("t", i)
		fillPayload(buf, uint32(i), 1)
		if _, err := w.root.Write(w.keys[i], buf); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	nconn := clientConns
	for c := 0; c < nconn; c++ {
		m := &roamer{
			rng: stats.NewRNG(o.seed<<8 | uint64(c)), version: make([]uint64, sz.treeKeys),
			seen: make([]uint64, sz.treeKeys), buf: make([]byte, sz.treeValue),
			leaf: c % len(w.leaves), timer: newStoppedTimer(),
		}
		for k := c; k < sz.treeKeys; k += nconn {
			m.own = append(m.own, k)
			m.version[k] = 1
		}
		if m.edge, err = w.connect(false, false); err != nil {
			return fail(err)
		}
		if m.mc, err = w.tree.AttachMC(w.leaves[m.leaf], m.edge.down.link, m.edge.up.link); err != nil {
			return fail(err)
		}
		m.mc.Client.Timeout = readTimeout
		sess := m.mc.Session()
		m.edge.up.tcp.Start(func(error) { sess.Detach() })
		if tr != nil {
			w.cts = append(w.cts, newConnTrace(c, m.edge.down.tap, nil))
		}
		w.mcs = append(w.mcs, m)
	}
	// First touch: every MC reads every key once through its leaf.
	for _, m := range w.mcs {
		for k := range w.keys {
			if err := w.read(m, k); err != nil {
				return fail(fmt.Errorf("first touch: %w", err))
			}
		}
	}
	return w, nil
}

// connect makes one edge: a fresh loopback connection with a counter on
// each end and, when the pass is traced, a tap on top of each counter.
func (w *treeRoam) connect(station, toRoot bool) (edge, error) {
	dialled, accepted, err := w.lb.connect()
	if err != nil {
		return edge{}, err
	}
	e := edge{
		down: end{count: newCountedLink(dialled), tcp: dialled},
		up:   end{count: newCountedLink(accepted), tcp: accepted},
	}
	e.down.link, e.up.link = e.down.count, e.up.count
	if w.tr != nil {
		e.down.tap, e.up.tap = w.tr.wrapTCP(dialled, accepted, station)
		e.down.tap.inner, e.up.tap.inner = e.down.count, e.up.count
		e.up.tap.origin = toRoot
		e.down.link, e.up.link = e.down.tap, e.up.tap
	}
	return e, nil
}

// caughtUp waits until to has handled every frame from had sent by now.
func (m *roamer) caughtUp(from, to *countedLink) error {
	target := from.sent.Load()
	deadline := nowNs() + int64(readTimeout)
	for to.handled.Load() < target {
		// Another driver waiting on a shared edge may take the poke meant
		// for this one; looking again after 200 µs bounds what that costs.
		await(m.timer, to.poke, 200*time.Microsecond)
		if nowNs() > deadline {
			return fmt.Errorf("a link end handled %d of %d frames within %v", to.handled.Load(), target, readTimeout)
		}
	}
	return nil
}

// quiet waits until the MC's root path has handled everything in flight
// on it: each edge's downward frames from the root down — a handler's
// own Sends are counted before it returns, so each hop's check covers
// what the hop above set off — and then each edge's upward frames.
func (w *treeRoam) quiet(m *roamer) error {
	path := w.topo.Path(m.mc.Station()) // leaf … root
	for i := len(path) - 2; i >= 0; i-- {
		e := w.edges[path[i]]
		if err := m.caughtUp(e.up.count, e.down.count); err != nil {
			return err
		}
	}
	if err := m.caughtUp(m.edge.up.count, m.edge.down.count); err != nil {
		return err
	}
	if err := m.caughtUp(m.edge.down.count, m.edge.up.count); err != nil {
		return err
	}
	for _, s := range path[:len(path)-1] {
		e := w.edges[s]
		if err := m.caughtUp(e.down.count, e.up.count); err != nil {
			return err
		}
	}
	return nil
}

// read is one Client.Read with its checks: the value is the one derived
// from (key, the version that came with it), and versions never go back.
func (w *treeRoam) read(m *roamer, k int) error {
	it, err := m.mc.Client.Read(w.keys[k])
	if err != nil {
		return err
	}
	if err := checkPayload(it.Value, w.o.sz.treeValue, uint32(k), it.Version); err != nil {
		return err
	}
	if it.Version < m.seen[k] {
		return fmt.Errorf("key %d: read v%d after v%d", k, it.Version, m.seen[k])
	}
	m.seen[k] = it.Version
	return nil
}

func (w *treeRoam) op(c int, t0 int64, rec *connRec) (opClass, int64, int64, error) {
	m, sz := w.mcs[c], &w.o.sz
	n := m.ops
	m.ops++
	var ct *connTrace
	if w.cts != nil {
		ct = w.cts[c]
	}
	if n > 0 && n%sz.treeHandoff == 0 {
		return w.handoff(m, ct, t0)
	}
	if ct != nil {
		ct.begin()
	}
	hot := m.rng.Intn(100) < sz.treeHotPct
	if m.rng.Intn(100) < sz.treeWritePct {
		k := m.own[m.rng.Intn(len(m.own))]
		if hot {
			k = m.own[m.rng.Intn(sz.treeHotKeys)]
		}
		ver := m.version[k] + 1
		fillPayload(m.buf, uint32(k), ver)
		it, err := w.root.Write(w.keys[k], m.buf)
		tw := nowNs()
		if err != nil {
			return opWrite, tw, tw, err
		}
		rec.writeCall.add(tw - t0)
		if it.Version != ver {
			return opWrite, tw, tw, fmt.Errorf("key %d: write got v%d, want v%d", k, it.Version, ver)
		}
		m.version[k] = ver
		if err := w.quiet(m); err != nil {
			return opWrite, tw, nowNs(), fmt.Errorf("key %d v%d: %w", k, ver, err)
		}
		done := nowNs()
		if ct != nil {
			ct.keep(span{rootWrite, t0, done}, span{"replica.write_call", t0, tw}, span{"tree.propagate", tw, done})
		}
		return opWrite, done, done, nil
	}
	k := m.rng.Intn(len(w.keys))
	if hot {
		k = m.own[m.rng.Intn(sz.treeHotKeys)]
	}
	err := w.read(m, k)
	t1 := nowNs()
	if ct != nil && err == nil {
		ct.noteRead(t0, t1)
	}
	return opRead, t1, t1, err
}

// handoff moves the MC to the next leaf over a fresh connection. The
// connection is made first; the latency reported is Handoff call →
// resync done, as a mobile computer arriving in a new cell would see it.
func (w *treeRoam) handoff(m *roamer, ct *connTrace, t0 int64) (opClass, int64, int64, error) {
	e, err := w.connect(false, false)
	if err != nil {
		return opHandoff, t0, nowNs(), err
	}
	m.past = m.past.Add(m.mc.Session().Meter().Snapshot())
	m.leaf = (m.leaf + 1) % len(w.leaves)
	h0 := nowNs()
	done, err := m.mc.Handoff(w.leaves[m.leaf], e.down.link, e.up.link)
	if err != nil {
		return opHandoff, t0, nowNs(), err
	}
	sess := m.mc.Session()
	e.up.tcp.Start(func(error) { sess.Detach() })
	// done is closed, never sent on: a receive that reports !ok is the
	// close, and await's own ok tells whether it came in time.
	if _, inTime := await(m.timer, done, readTimeout); !inTime {
		return opHandoff, t0, nowNs(), fmt.Errorf("handoff to station %d: resync not done within %v", w.leaves[m.leaf], readTimeout)
	}
	h1 := nowNs()
	m.moves++
	if !m.mc.FinishHandoff(e.down.link) {
		m.cold++
	}
	old := m.edge
	m.edge = e
	if ct != nil {
		// The old edge's taps have fed the shared histograms already.
		w.tr.drop(old.down.tap, old.up.tap)
		ct.cli = e.down.tap
		ct.keep(span{rootHandoff, h0, h1})
	}
	// The driver records done - t0; shift done so that is h1 - h0.
	return opHandoff, t0 + (h1 - h0), nowNs(), nil
}

// meters returns the protocol messages (data + control) on the edges of
// each depth — 1 and 2 between stations, 3 between leaf and MC — and the
// summed ledger.
func (w *treeRoam) meters() (byDepth [4]int, sum replica.MeterSnapshot) {
	note := func(depth int, s replica.MeterSnapshot) {
		byDepth[depth] += s.DataMsgs + s.ControlMsgs
		sum = sum.Add(s)
	}
	for i := 1; i < w.topo.N(); i++ {
		d := w.topo.Depth(i)
		note(d, w.tree.Stations[i].Client().Meter().Snapshot())
		note(d, w.tree.ParentSession(i).Meter().Snapshot())
	}
	for _, m := range w.mcs {
		note(3, m.mc.Client.Meter().Snapshot())
		note(3, m.mc.Session().Meter().Snapshot())
		note(3, m.past)
	}
	return byDepth, sum
}

func (w *treeRoam) ledger() replica.MeterSnapshot {
	_, sum := w.meters()
	return sum
}

func (w *treeRoam) snapshot() (passCounters, [4]int) {
	c := passCounters{writev: w.lb.stats()}
	for _, m := range w.mcs {
		c.cache.add(m.mc.Client.Cache().Stats())
	}
	depth, _ := w.meters()
	return c, depth
}

func (w *treeRoam) beginPass() { w.begin, w.depth0 = w.snapshot() }
func (w *treeRoam) endPass()   { w.end, w.depth1 = w.snapshot() }

func (w *treeRoam) traces() []*connTrace { return w.cts }

func (w *treeRoam) harnessBytes() int64 { return 0 }

// verify requires that no handoff fell back to a cold reattach and that,
// once propagation in flight has landed, every MC reads the root's
// version of every key. (Read errors and version regressions already
// failed the operation that saw them.)
func (w *treeRoam) verify() error {
	for c, m := range w.mcs {
		if m.cold != 0 {
			return fmt.Errorf("MC %d: %d of %d handoffs arrived cold", c, m.cold, m.moves)
		}
	}
	store := w.tree.Stations[0].Store()
	deadline := time.Now().Add(quiesceTimeout)
	for c, m := range w.mcs {
		for k, key := range w.keys {
			want, _ := store.Get(key)
			for {
				if err := w.read(m, k); err != nil {
					return fmt.Errorf("MC %d after quiesce: %w", c, err)
				}
				if m.seen[k] == want.Version {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("MC %d reads key %d at v%d, the root has v%d", c, k, m.seen[k], want.Version)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

func (w *treeRoam) layers(m metrics, pass *passResult) {
	ops := float64(pass.rec.ops())
	counterLayers(m, w.begin, w.end, ops)

	m["tree.relay_up_us_p50"] = us(w.tr.transit[1][1].snapshot().quantile(0.50))
	m["tree.relay_down_us_p50"] = us(w.tr.transit[1][0].snapshot().quantile(0.50))
	m["tree.root_server_us_p50"] = us(w.tr.serve.snapshot().quantile(0.50))
	if misses := float64(w.end.cache.misses - w.begin.cache.misses); misses > 0 {
		m["tree.upstream_fetches_per_miss"] = pass.counter(`mobirep_tree_fetches_total{result="parent"}`) / misses
	}
	m["tree.placement_drops_per_kop"] = 1e3 * pass.counter("mobirep_tree_placement_drops_total") / ops
	if moves := pass.counter("mobirep_tree_handoffs_total"); moves > 0 {
		m["tree.handoff_warm_ratio"] = 1 - pass.counter("mobirep_tree_handoffs_cold_total")/moves
	}
	m["tree.handoff_p95_us"] = us(pass.rec.lat[opHandoff].quantile(0.95))
	for d := 1; d <= 3; d++ {
		m[fmt.Sprintf("tree.msgs_per_op_by_depth_%d", d)] = float64(w.depth1[d]-w.depth0[d]) / ops
	}
}

func (w *treeRoam) close() {
	for _, m := range w.mcs {
		m.mc.Session().Detach()
		m.mc.Client.Disconnect()
	}
	if w.tree != nil {
		for i := w.topo.N() - 1; i >= 1; i-- {
			w.tree.ParentSession(i).Detach()
			w.tree.Stations[i].Client().Disconnect()
		}
	}
	w.lb.close()
}
