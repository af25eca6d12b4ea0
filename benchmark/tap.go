package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// The traced pass measures the layers from outside the program: every
// transport.Link the benchmark hands to the product is wrapped in a tap
// that stamps Send entry and handler entry and times the Send call. An
// untraced pass hands over the bare links, so the timed numbers carry no
// tap.

var clockBase = time.Now()

// nowNs is the benchmark clock: monotonic nanoseconds since start-up.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// fanScope collects what the server-side taps saw during one Write: the
// first fan-out Send and how many there were. One writer uses it at a
// time (traced passes with several writers take tracer.writeMu).
type fanScope struct {
	first atomic.Int64
	sends atomic.Int64
}

func (s *fanScope) reset() {
	s.first.Store(0)
	s.sends.Store(0)
}

func (s *fanScope) mark(now int64) {
	if s.first.Load() == 0 {
		s.first.CompareAndSwap(0, now)
	}
	s.sends.Add(1)
}

// tap wraps one end of a link.
type tap struct {
	inner transport.Link
	tcp   *transport.TCPLink // nil on an in-memory link
	tr    *tracer
	peer  *tap // other end of a TCP pair; nil on an in-memory link

	station bool // a station↔station edge of a tree (else an MC edge)
	upEnd   bool // the server/parent end: the frames it receives go up
	origin  bool // a server end at the tree root, which answers reads itself
	// scope, on a server end, collects the Sends of Write fan-outs.
	scope *fanScope

	// mu orders the send stamp with the inner Send, so the stamp's
	// sequence number is the frame's position on the wire. TCP ends only:
	// an in-memory Send runs the peer's handler inline, and holding a
	// lock across that could deadlock two taps against each other.
	mu      sync.Mutex
	sendSeq uint64                // guarded by mu
	recvSeq atomic.Uint64         // advanced only by the link's read loop
	ring    [tapRing]atomic.Int64 // Send-entry stamps by sequence number

	sends, recvs atomic.Uint64
	sendIn       [32]atomic.Int64 // last Send entry by frame kind
	recvIn       [32]atomic.Int64 // last handler entry by frame kind
	serving      atomic.Int64     // entry of the ReadReq handler now running

	// transit is shared by the taps of one group (tracer.transit).
	transit *lockedHist

	// corrupt, when set by the self-test, damages a received frame before
	// the product sees it.
	corrupt func(frame []byte)
}

func (t *tap) Send(frame []byte) error {
	now := nowNs()
	kind, _ := wire.FrameKind(frame)
	if t.origin && kind == wire.KindReadResp {
		if s := t.serving.Load(); s != 0 {
			t.tr.serve.add(now - s)
		}
	}
	if t.scope != nil {
		t.scope.mark(now)
	}
	t.tr.capture(frame)
	// Everything a driver may look at once the frame has been answered is
	// stored before the frame leaves: the peer's reply can overtake the
	// rest of this function.
	t.sendIn[kind&31].Store(now)
	t.sends.Add(1)
	var err error
	if t.peer != nil {
		t.mu.Lock()
		t.ring[t.sendSeq%tapRing].Store(now)
		t.sendSeq++
		if err = t.inner.Send(frame); err != nil {
			t.sendSeq--
		}
		t.mu.Unlock()
	} else {
		err = t.inner.Send(frame)
	}
	out := nowNs()
	if err != nil {
		t.sends.Add(^uint64(0))
		return err
	}
	t.tr.sendCall.add(out - now)
	t.tr.noteFrame(len(frame))
	if t.tcp != nil {
		t.tr.noteQueued(int64(t.tcp.QueuedBytes()))
	}
	return nil
}

func (t *tap) SetHandler(h transport.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(frame []byte) {
		now := nowNs()
		kind, _ := wire.FrameKind(frame)
		if t.peer != nil {
			seq := t.recvSeq.Add(1) - 1
			t.transit.add(now - t.peer.ring[seq%tapRing].Load())
		}
		t.recvIn[kind&31].Store(now)
		t.recvs.Add(1)
		if kind == wire.KindReadReq {
			t.serving.Store(now)
		}
		if t.corrupt != nil {
			t.corrupt(frame)
		}
		h(frame)
		t.serving.Store(0)
	})
}

func (t *tap) Close() error { return t.inner.Close() }

// events is a tap's frame counters at one instant.
type events struct{ sends, recvs uint64 }

func (t *tap) events() events { return events{t.sends.Load(), t.recvs.Load()} }

// tracer owns the taps and buffers of one traced pass.
type tracer struct {
	mu   sync.Mutex
	taps []*tap

	scope   fanScope
	writeMu sync.Mutex // serializes traced fan-out Writes when C > 1

	// transit[station][up]: peer's Send entry → handler entry, by edge
	// kind (MC edge or station edge) and direction (1 = towards the root).
	transit  [2][2]lockedHist
	serve    lockedHist // ReadReq handler entry → ReadResp Send entry at an origin
	sendCall lockedHist // time inside Send, every tap

	frames, frameBytes atomic.Int64
	queuedMax          atomic.Int64

	capMu   sync.Mutex
	capFull atomic.Bool
	capBuf  []byte   // arena the captured frames are copied into
	capEnds []uint32 // end offset of each captured frame in capBuf

	// corrupt is copied into every client-end tap (self-test only).
	corrupt func(frame []byte)
}

func newTracer() *tracer {
	return &tracer{
		capBuf:  make([]byte, 0, captureFrames*256),
		capEnds: make([]uint32, 0, captureFrames),
	}
}

func (tr *tracer) add(t *tap) *tap {
	t.tr = tr
	t.transit = &tr.transit[b2i(t.station)][b2i(t.upEnd)]
	tr.mu.Lock()
	tr.taps = append(tr.taps, t)
	tr.mu.Unlock()
	return t
}

// wrapTCP taps both ends of one loopback connection. down is the
// client/child end, up the server/parent end.
func (tr *tracer) wrapTCP(down, up *transport.TCPLink, station bool) (downTap, upTap *tap) {
	downTap = &tap{inner: down, tcp: down, station: station, corrupt: tr.corrupt}
	upTap = &tap{inner: up, tcp: up, station: station, upEnd: true}
	downTap.peer, upTap.peer = upTap, downTap
	return tr.add(downTap), tr.add(upTap)
}

// wrapMem taps the server end of an in-memory pair.
func (tr *tracer) wrapMem(l transport.Link) *tap {
	return tr.add(&tap{inner: l, upEnd: true})
}

func (tr *tracer) noteFrame(n int) {
	tr.frames.Add(1)
	tr.frameBytes.Add(int64(n))
}

func (tr *tracer) noteQueued(q int64) {
	for {
		cur := tr.queuedMax.Load()
		if q <= cur || tr.queuedMax.CompareAndSwap(cur, q) {
			return
		}
	}
}

// capture keeps a copy of the first captureFrames frames sent, the mix
// the codec replay runs over.
func (tr *tracer) capture(frame []byte) {
	if tr.capFull.Load() {
		return
	}
	tr.capMu.Lock()
	if len(tr.capEnds) == cap(tr.capEnds) {
		tr.capFull.Store(true)
	} else {
		tr.capBuf = append(tr.capBuf, frame...)
		tr.capEnds = append(tr.capEnds, uint32(len(tr.capBuf)))
	}
	tr.capMu.Unlock()
}

func (tr *tracer) captured() [][]byte {
	tr.capMu.Lock()
	defer tr.capMu.Unlock()
	out := make([][]byte, len(tr.capEnds))
	start := uint32(0)
	for i, end := range tr.capEnds {
		out[i] = tr.capBuf[start:end]
		start = end
	}
	return out
}

// reset forgets what the warm-up recorded. It runs between passes, with
// no operation in flight.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.transit {
		tr.transit[i][0].reset()
		tr.transit[i][1].reset()
	}
	tr.serve.reset()
	tr.sendCall.reset()
	tr.frames.Store(0)
	tr.frameBytes.Store(0)
	tr.queuedMax.Store(0)
	tr.capMu.Lock()
	tr.capBuf = tr.capBuf[:0]
	tr.capEnds = tr.capEnds[:0]
	tr.capFull.Store(false)
	tr.capMu.Unlock()
}

// unmatched counts, over the TCP links still in use (a handoff drops the
// edge it replaced), the frames sent that no handler received. It runs
// after the workload quiesced, so every frame in flight has had time to
// land.
func (tr *tracer) unmatched() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var n int64
	for _, t := range tr.taps {
		if t.peer == nil {
			continue
		}
		t.mu.Lock()
		sent := t.sendSeq
		t.mu.Unlock()
		n += int64(sent) - int64(t.peer.recvSeq.Load())
	}
	return n
}

// drop forgets the taps of a link the harness replaced (a handoff's old
// edge); their samples already sit in the shared histograms.
func (tr *tracer) drop(ts ...*tap) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kept := tr.taps[:0]
	for _, t := range tr.taps {
		gone := false
		for _, d := range ts {
			gone = gone || t == d
		}
		if !gone {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(tr.taps); i++ {
		tr.taps[i] = nil
	}
	tr.taps = kept
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
