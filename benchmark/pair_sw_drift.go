package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
	"mobirep/internal/wire"
	"mobirep/internal/workload"
)

// pair_sw_drift: mode SW9, in-memory store. Each connection owns its
// keys and plays one drifting-theta stream (driftingStream): a read is
// Client.Read, a write is Server.Write on the same key, strictly one
// after the other.
// Each theta period draws its keys from its own small slice of the key
// space, so a key sees a run of requests at one theta — the paper's
// period model per item — and its window settles, then flips when the
// slice comes round again under another theta.
type swDrift struct {
	*pair
	conn      []*swConn
	heapState float64 // heap bytes per (session, key) state, traced set-up only
	applyNs   float64 // reference replay cost per op, filled by verify
}

type swConn struct {
	ops     sched.Schedule // pre-generated stream; wraps when exhausted
	rng     *stats.RNG     // key picks; verify replays them from seed
	seed    uint64
	next    int // index of the next op
	keys    []string
	version []uint64 // last version written, by key
	buf     []byte

	sig   chan swEvent // apply, drop and pong notifications from the link's read loop
	timer *time.Timer
	pings uint64
}

type swEvent struct {
	kind uint8 // evApply, evDrop or evPong
	n    uint64
}

const (
	evApply = iota + 1
	evDrop
	evPong
)

var swDriftWorkload = netWorkload{name: "pair_sw_drift", primary: opRead, build: buildSWDrift}

var errNotify = errors.New("no notification from the MC within the read timeout")

func buildSWDrift(o *options, tr *tracer) (instance, error) {
	sz := o.sz
	p, err := newPair(o, tr, replica.SW(sz.swK), db.NewStore())
	if err != nil {
		return nil, err
	}
	w := &swDrift{pair: p}
	fail := func(err error) (instance, error) {
		p.close()
		return nil, err
	}
	for c := 0; c < clientConns; c++ {
		cn := &swConn{
			seed: o.seed<<8 | uint64(c),
			keys: make([]string, sz.swKeys), version: make([]uint64, sz.swKeys),
			buf: make([]byte, sz.swValue), sig: make(chan swEvent, 4),
			timer: newStoppedTimer(),
		}
		cn.rng = stats.NewRNG(cn.seed)
		cn.ops = driftingStream(stats.NewRNG(cn.seed^0x9e3779b97f4a7c15), &sz)
		for i := range cn.keys {
			cn.keys[i] = keyName(fmt.Sprintf("s%02d-", c), i)
			cn.version[i] = 1
			fillPayload(cn.buf, uint32(i), 1)
			if _, err := p.srv.Write(cn.keys[i], cn.buf); err != nil {
				return fail(fmt.Errorf("preload: %w", err))
			}
		}
		cli, err := p.attachTCP()
		if err != nil {
			return fail(err)
		}
		cli.SetApplyHandler(func(it db.Item) { cn.notify(swEvent{evApply, it.Version}) })
		cli.SetDropHandler(func(string) { cn.notify(swEvent{kind: evDrop}) })
		cli.SetPongHandler(func(seq uint64) { cn.notify(swEvent{evPong, seq}) })
		w.conn = append(w.conn, cn)
	}

	// First touch: every connection reads each of its keys once, which
	// creates the per-(session, key) state on both sides.
	var h0 uint64
	if tr != nil {
		h0 = heapAlloc()
	}
	for c, cn := range w.conn {
		for i, key := range cn.keys {
			it, err := p.clis[c].Read(key)
			if err == nil {
				err = checkPayload(it.Value, sz.swValue, uint32(i), 1)
			}
			if err != nil {
				return fail(fmt.Errorf("first touch: %w", err))
			}
		}
	}
	if tr != nil {
		w.heapState = float64(heapAlloc()-h0) / float64(2*len(w.conn)*sz.swKeys)
	}
	return w, nil
}

// driftingStream is the period model of workload.Drifting — each period
// draws a theta from [0, 1] and its requests are Bernoulli(theta) — with
// the thetas stratified: every swStrata consecutive periods hold one
// theta from each of swStrata equal parts of [0, 1], in a seeded order.
// Any few seconds of the stream then carry the same mix of read-heavy
// and write-heavy periods whatever the seed, so cost_per_op and
// allocs_per_op do not move with the luck of the draw.
func driftingStream(rng *stats.RNG, sz *sizes) sched.Schedule {
	ops := make(sched.Schedule, sz.swSchedule)
	order := make([]int, sz.swStrata)
	for p := 0; (p+1)*sz.swPeriod <= len(ops); p++ {
		if p%sz.swStrata == 0 {
			for i := range order {
				order[i] = i
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		theta := (float64(order[p%sz.swStrata]) + rng.Float64()) / float64(sz.swStrata)
		workload.FillBernoulli(rng, theta, ops[p*sz.swPeriod:(p+1)*sz.swPeriod])
	}
	return ops
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pick returns the key index of op j: period j/swPeriod draws uniformly
// from its own swHotKeys-wide slice of the connection's keys.
func (cn *swConn) pick(sz *sizes, j int, rng *stats.RNG) int {
	base := (j / sz.swPeriod * sz.swHotKeys) % sz.swKeys
	return (base + rng.Intn(sz.swHotKeys)) % sz.swKeys
}

// notify runs on the MC link's read loop. One operation is outstanding
// and it produces at most three events, so the channel has room unless
// the driver already gave up on the operation; then the event is dropped
// rather than blocking the read loop.
func (cn *swConn) notify(ev swEvent) {
	select {
	case cn.sig <- ev:
	default:
	}
}

// wait blocks until the MC's read loop reports the next event.
func (cn *swConn) wait(kind uint8) (swEvent, error) {
	ev, ok := await(cn.timer, cn.sig, readTimeout)
	if !ok {
		return ev, errNotify
	}
	if ev.kind != kind {
		return ev, fmt.Errorf("MC reported event %d, want %d", ev.kind, kind)
	}
	return ev, nil
}

func (w *swDrift) op(c int, t0 int64, rec *connRec) (opClass, int64, int64, error) {
	cn, cli, sz := w.conn[c], w.clis[c], &w.o.sz
	j := cn.next
	cn.next++
	k := cn.pick(sz, j, cn.rng)
	key := cn.keys[k]
	var ct *connTrace
	if w.cts != nil {
		ct = w.cts[c]
		ct.begin()
	}

	if cn.ops[j%len(cn.ops)] == sched.Read {
		it, err := cli.Read(key)
		t1 := nowNs()
		if err == nil {
			err = checkPayload(it.Value, sz.swValue, uint32(k), cn.version[k])
			if err == nil && it.Version != cn.version[k] {
				err = fmt.Errorf("key %d: read v%d, latest written is v%d", k, it.Version, cn.version[k])
			}
		}
		if ct != nil && err == nil {
			ct.noteRead(t0, t1)
		}
		return opRead, t1, t1, err
	}

	// A write completes when Write returned and, if the MC held a copy,
	// the MC applied the propagation — or dropped the copy, in which case
	// the harness also waits until the SC has taken the window back, or
	// the SC's next decision on this key could race the delete-request.
	ver := cn.version[k] + 1
	cn.version[k] = ver
	fillPayload(cn.buf, uint32(k), ver)
	held := cli.HasCopy(key)
	if ct != nil {
		ct.scope.reset()
	}
	it, err := w.srv.Write(key, cn.buf)
	tw := nowNs()
	if err != nil {
		return opWrite, tw, tw, err
	}
	rec.writeCall.add(tw - t0)
	if it.Version != ver {
		return opWrite, tw, tw, fmt.Errorf("key %d: write got v%d, want v%d", k, it.Version, ver)
	}
	done, next, dealloc := tw, tw, false
	if held {
		ev, err := cn.wait(evApply)
		if err == nil && ev.n != ver {
			err = fmt.Errorf("key %d: MC applied v%d, want v%d", k, ev.n, ver)
		}
		if err != nil {
			return opWrite, tw, nowNs(), err
		}
		if dealloc = !cli.HasCopy(key); dealloc {
			if _, err = cn.wait(evDrop); err == nil {
				done = nowNs()
				cn.pings++
				if err = cli.Ping(cn.pings); err == nil {
					_, err = cn.wait(evPong)
				}
			}
			if err != nil {
				return opWrite, tw, nowNs(), err
			}
		} else {
			done = nowNs()
		}
		next = done
		if dealloc {
			next = nowNs()
		}
	}
	if ct != nil {
		ct.noteOwnWrite(t0, tw, done, next, held, dealloc)
	}
	return opWrite, done, next, nil
}

// noteOwnWrite records a Server.Write whose only subscriber is the
// writing connection's own MC (ct.scope saw its fan-out, if any).
func (ct *connTrace) noteOwnWrite(t0, tw, visible, end int64, held, dealloc bool) {
	cli, srv := ct.delta()
	var wantCli, wantSrv events
	switch {
	case dealloc: // WriteProp down, DeleteReq and Ping up, Pong down
		wantCli, wantSrv = events{2, 2}, events{2, 2}
	case held:
		wantCli, wantSrv = events{0, 1}, events{1, 0}
	}
	if cli != wantCli || srv != wantSrv {
		ct.misfits++
		return
	}
	if !held {
		ct.keep(span{rootWrite, t0, end})
		return
	}
	first := ct.scope.first.Load()
	cr := ct.cli.recvIn[wire.KindWriteProp].Load()
	if first < t0 || first > tw || cr < first || cr > visible {
		ct.misfits++
		return
	}
	ct.writeCommit.add(first - t0)
	ct.fanout.add(tw - first)
	children := []span{
		{"replica.write_commit", t0, first},
		{"replica.fanout", first, tw},
		{"transport.downlink", first, cr},
		{"replica.client_apply", cr, visible},
	}
	if dealloc {
		children = append(children, span{"harness.fence", visible, end})
	}
	ct.keep(span{rootWrite, t0, end}, children...)
}

// verify replays every operation each connection issued — the first
// touches, then ops 0..next-1 with the same key picks — through one
// core.NewSW per key under the message model, and requires the summed
// Meters to agree message for message: E13's protocol == simulator
// equivalence, over TCP.
func (w *swDrift) verify() error {
	sz := &w.o.sz
	model := cost.NewMessage(omega)
	var ref cost.Ledger
	var applyNs, applied int64
	steps := make([]core.Step, 0, 4096)
	for _, cn := range w.conn {
		pols := make([]*core.SW, sz.swKeys)
		for i := range pols {
			pols[i] = core.NewSW(sz.swK)
			ref.Observe(model, pols[i].Apply(sched.Read))
		}
		rng := stats.NewRNG(cn.seed)
		for j := 0; j < cn.next; {
			steps = steps[:0]
			end := j + cap(steps)
			if end > cn.next {
				end = cn.next
			}
			// Key picks first, so the timed loop below is Apply alone.
			var ks [4096]uint16
			for i := j; i < end; i++ {
				ks[i-j] = uint16(cn.pick(sz, i, rng))
			}
			t0 := nowNs()
			for i := j; i < end; i++ {
				steps = append(steps, pols[ks[i-j]].Apply(cn.ops[i%len(cn.ops)]))
			}
			applyNs += nowNs() - t0
			applied += int64(end - j)
			for _, st := range steps {
				ref.Observe(model, st)
			}
			j = end
		}
	}
	if applied > 0 {
		w.applyNs = float64(applyNs) / float64(applied)
	}
	led := w.ledger()
	if led.DataMsgs != ref.DataMessages || led.ControlMsgs != ref.ControlMessages || led.Connections != ref.Connections {
		return fmt.Errorf("ledger: protocol %d data, %d control, %d connections; reference replay %d, %d, %d",
			led.DataMsgs, led.ControlMsgs, led.Connections, ref.DataMessages, ref.ControlMessages, ref.Connections)
	}
	if got, want := led.MessageCost(omega), ref.Total; got != want {
		return fmt.Errorf("ledger: protocol cost %v, reference replay %v", got, want)
	}
	return nil
}

func (w *swDrift) layers(m metrics, pass *passResult) {
	ops := float64(pass.rec.ops())
	counterLayers(m, w.begin, w.end, ops)
	m["replica.heap_bytes_per_session_key"] = w.heapState
	m["core.sw_apply_ns"] = w.applyNs
}
