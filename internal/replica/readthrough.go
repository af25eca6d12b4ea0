package replica

import (
	"fmt"
	"sync"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/wire"
)

// A relay's parent face reads through for its children with readThrough,
// on a pooled fetch record, never a parked goroutine. Read floors make
// reads monotone per key even when a relay's copy lags the root.

// readWaiter is one parked singleton read: the channel its goroutine
// waits on — or, for a relay's read-through, the fetch record to complete
// instead — the floor its request carried (0 = none), the ticket its
// parking drew (the request's id) and the next-younger read parked on the
// same key. A response below a waiter's floor is not its answer and must
// not complete it.
//
// Waiters are pooled, channel and timeout timer included, so a remote
// read allocates nothing but the value it returns. What makes reuse safe
// is ownership: whoever unlinks a waiter from Client.pending under c.mu
// is the only party that may still complete it. A reader recycles its
// waiter after taking the one response, or after unlinking it itself
// (cancelPending reports true); a waiter it lost to onReadResp,
// onReadFail or failWaiters it abandons — a late response or a close must
// land on a channel no later read will ever see. A fetch is recycled by
// whoever completes it (fetch.done), so a readThrough that lost its
// record may find it parked again for a later read; the ticket tells the
// two apart.
type readWaiter struct {
	ch     chan readResult
	fetch  *fetch // the relay read this waiter parks; nil for ReadContext
	key    string // the reader's own key: what Client.pending is indexed by
	floor  uint64
	ticket uint64 // the request id, drawn by parkLocked under c.mu
	next   *readWaiter
	timer  *time.Timer // created by the first read with a Timeout
	armed  bool        // timer is running, or its tick is unconsumed
}

// readResult is what a response gives the parked reader: an owned copy
// of the value, and the version.
type readResult struct {
	value   []byte
	version uint64
}

var waiterPool = sync.Pool{New: func() any { return &readWaiter{ch: make(chan readResult, 1)} }}

// arm starts the waiter's timeout and returns the channel it ticks on.
func (w *readWaiter) arm(d time.Duration) <-chan time.Time {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	w.armed = true
	return w.timer.C
}

// done ends a read's use of w and, when recycle says the reader owns
// w.ch again (see readWaiter), returns it to the pool. A timer may be
// reused only once it is stopped with nothing in its channel: Stop
// reporting true proves that, and so does having consumed the tick (the
// reader clears armed). When Stop loses the race with expiry the tick is
// still on its way — under go.mod's go 1.22 timer semantics a drain could
// miss it, and a later read would time out at once — so that timer is
// dropped and the next arm makes a new one.
func (w *readWaiter) done(recycle bool) {
	if w.armed && !w.timer.Stop() {
		w.timer = nil
	}
	w.armed = false
	if recycle {
		w.key, w.next = "", nil
		waiterPool.Put(w)
	}
}

// fetch is one child read in flight through a relay: the record the
// relay's server starts (startFetch), its parent face parks
// (readThrough) and completes (Server.fetched), and done hands back to
// the session to answer the child. Records are pooled and carry no func
// value, so a hop through a relay allocates nothing once the key is
// known to the station. A record belongs to whoever holds it last: it
// must not be touched after done.
type fetch struct {
	w        readWaiter // the record's place on the parent face's parked chain
	ss       *Session
	id       uint64      // the child's request id, echoed in the answer
	batch    *fetchBatch // the joint read or resync this key is part of; nil for a singleton
	upstream bool        // readThrough parked it for the parent's answer
}

var fetchPool = sync.Pool{New: func() any {
	f := new(fetch)
	f.w.fetch = f
	return f
}}

// newFetch takes a record for ss's read of key, which must be owned,
// requested under id (0 when the key is part of fb).
func newFetch(ss *Session, key string, floor, id uint64, fb *fetchBatch) *fetch {
	f := fetchPool.Get().(*fetch)
	f.w.key, f.w.floor, f.ss, f.id, f.batch = key, floor, ss, id, fb
	return f
}

// done hands the fetch back to the session that started it: ok serves
// the child from the store (or counts the key toward its batch), !ok
// refuses the read. The record is recycled.
func (f *fetch) done(ok bool) {
	ss, fb, key, id := f.ss, f.batch, f.w.key, f.id
	*f = fetch{w: readWaiter{fetch: f}}
	fetchPool.Put(f)
	if fb != nil {
		fb.done(ss, ok)
	} else {
		ss.finishReadReq(key, id, ok)
	}
}

// readThrough is a relay's read of f's key through its parent face, and
// never blocks: answered synchronously from the station's own copy when
// it satisfies the floor, otherwise parked until the response arrives (or
// abandoned — offline, link failure, or a reconnect clearing the
// waiters). Either way the relay's fetched completes f exactly once, on
// the caller's goroutine or a transport delivery goroutine. The exception
// is a response lost in transit with no subsequent reconnect: the
// caller's retry machinery owns that case, exactly as a timed-out Read
// does.
func (c *Client) readThrough(f *fetch) {
	w := &f.w
	key := w.key
	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		mReadOffline.Inc()
		c.relay.fetched(f, db.Item{}, false)
		return
	}
	vb := wire.GetBuf()
	if it, ok := c.serveLocked(f, vb.B[:0]); ok {
		vb.B = it.Value
		c.mu.Unlock()
		mReadLocal.Inc()
		c.relay.fetched(f, it, true)
		wire.PutBuf(vb)
		return
	}
	wire.PutBuf(vb)
	// A held copy below the floor stays held: the remote answer is
	// absorbed like a one-key resync (see answerLocked). Once parked, f
	// belongs to whoever unlinks it: only what was read before is used.
	f.upstream = true
	c.parkLocked(w)
	floor, ticket, link := w.floor, w.ticket, c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor, ID: ticket}); err != nil {
		c.suspect(link, err)
		// Only the goroutine that actually removed the waiter may fail it:
		// a concurrent Suspend that already took the waiter set fails it
		// through failWaiters.
		if c.cancelPending(key, w, ticket) {
			mReadOffline.Inc()
			c.relay.fetched(f, db.Item{}, false)
		}
		return
	}
	mReadRemote.Inc()
}

// serveLocked folds the parent face's floor for f's key into f's, and
// reads the station's own copy out, appended to dst, if it clears that
// floor. The client's floor folds in so that the subtree below a relay
// gets collectively monotone reads, not just per original requester; the
// copy is copied out, not lent, because a lent value would make the key's
// next WriteProp clone into a fresh buffer. The caller holds c.mu.
func (c *Client) serveLocked(f *fetch, dst []byte) (db.Item, bool) {
	w := &f.w
	if fl := c.floors[w.key]; fl > w.floor {
		w.floor = fl
	}
	it, ok := c.cache.GetCopy(w.key, w.floor, dst)
	if ok {
		c.noteFloorLocked(w.key, it.Version)
	}
	return it, ok
}

// gather is a relay's scratch for the fetches of one child batch
// (startBatch): the ones its parent face's copies serve, with their
// values, and the joint reads that ask its parent for the rest. Pooled;
// it never outlives the batch's start.
type gather struct {
	fetches []*fetch
	local   []localRead
	keys    []string // the joint read being encoded
	hints   []uint64 // parallel to keys
	sends   []jointSend
}

// localRead is a fetch the parent face's own copy serves, with the value.
type localRead struct {
	f  *fetch
	it db.Item
}

// jointSend is one joint read of a gather: its id, its encoded request
// and its number of keys.
type jointSend struct {
	id  uint64
	buf *wire.Buf
	n   int
}

var gatherPool = sync.Pool{New: func() any { return new(gather) }}

// release clears g and returns it to the pool.
func (g *gather) release() {
	clear(g.fetches)
	clear(g.local)
	clear(g.keys)
	clear(g.sends)
	g.fetches, g.local, g.keys, g.hints, g.sends = g.fetches[:0], g.local[:0], g.keys[:0], g.hints[:0], g.sends[:0]
	gatherPool.Put(g)
}

// readThroughAll is readThrough for the fetches of one child batch, under
// one lock: each fetch the station's own copy serves is completed from
// it, and the rest go up as one joint read (a MultiReadReq of at most
// wire.MaxBatch keys; more take more) that draws one id, the ticket every
// one of its fetches parks with. The answer completes them (onJointResp).
// Like readThrough it never blocks.
func (c *Client) readThroughAll(g *gather) {
	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		for _, f := range g.fetches {
			mReadOffline.Inc()
			c.relay.fetched(f, db.Item{}, false)
		}
		return
	}
	// Served values are copied out, back to back, into one pooled buffer.
	vb := wire.GetBuf()
	up := g.fetches[:0]
	for _, f := range g.fetches {
		n := len(vb.B)
		if it, ok := c.serveLocked(f, vb.B); ok {
			vb.B = it.Value
			it.Value = vb.B[n:]
			g.local = append(g.local, localRead{f, it})
			continue
		}
		f.upstream = true
		up = append(up, f)
	}
	for len(up) > 0 {
		chunk := up[:min(len(up), wire.MaxBatch)]
		up = up[len(chunk):]
		c.seq++
		s := jointSend{id: c.seq, buf: wire.GetBuf(), n: len(chunk)}
		g.keys, g.hints = g.keys[:0], g.hints[:0]
		for _, f := range chunk {
			c.queueLocked(&f.w, s.id)
			g.keys = append(g.keys, f.w.key)
			// A hint names only a version the mirror holds, so a
			// NotModified answer is backed by the mirror's value.
			g.hints = append(g.hints, c.relay.store.Version(f.w.key))
		}
		frame, err := wire.AppendEncodeBatch(s.buf.B[:0], wire.Batch{Kind: wire.KindMultiReadReq, ID: s.id, Keys: g.keys, Versions: g.hints})
		if err != nil {
			panic(fmt.Sprintf("replica: encode joint read: %v", err))
		}
		s.buf.B = frame
		g.sends = append(g.sends, s)
	}
	link := c.link
	c.mu.Unlock()

	// Once parked, a fetch belongs to whoever unlinks it: none is read
	// from here on.
	for _, s := range g.sends {
		c.meter.addConnection()
		err := ErrOffline
		if link != nil {
			c.meter.addControl(len(s.buf.B))
			err = link.Send(s.buf.B)
		}
		wire.PutBuf(s.buf)
		if err != nil {
			c.suspect(link, err)
			mReadOffline.Add(uint64(c.failJoint(s.id)))
			continue
		}
		mReadRemote.Add(uint64(s.n))
		mJointReads.Inc()
	}
	for _, l := range g.local {
		mReadLocal.Inc()
		c.relay.fetched(l.f, l.it, true)
	}
	wire.PutBuf(vb)
}

// failJoint fails every fetch still parked under joint read id, and
// returns how many: its request could not be sent, or its answer refused
// it. What a reconnect failed already is not there to fail again.
func (c *Client) failJoint(id uint64) int {
	var failed *readWaiter
	c.mu.Lock()
	for key, q := range c.pending {
		for ; q != nil; q = q.next {
			if q.ticket == id {
				failed = chain(failed, c.unparkLocked(key, func(w *readWaiter) bool { return w.ticket == id }))
				break
			}
		}
	}
	c.mu.Unlock()
	n := 0
	for w := failed; w != nil; w = w.next {
		n++
	}
	c.failReads(failed)
	return n
}

// chain appends the chain of parked reads b to a and returns the result.
func chain(a, b *readWaiter) *readWaiter {
	if a == nil {
		return b
	}
	t := a
	for t.next != nil {
		t = t.next
	}
	t.next = b
	return a
}

// onJointResp applies the answer to a relay's joint read, b (borrowed),
// entry by entry by the rules of a singleton answer (answerLocked): each
// completes the reads of its key parked at or before the request whose
// floor it clears — the joint read's own fetch among them — installs the
// allocation the id allows, and absorbs the value into a copy held below
// its floor. A NotModified entry carries the mirror's value at the
// hinted version. A fetch of the joint read that its entry does not
// complete (the answer is below its floor, or the mirror no longer holds
// the hinted version) goes up again as a singleton readThrough. A
// refusal, an answer with no entries, fails every fetch of the joint
// read. An entry finds c.since moved only if a reconnect failed every
// read the rest of the answer was for.
func (c *Client) onJointResp(b wire.Batch) {
	if len(b.Entries) == 0 {
		c.failJoint(b.ID)
		return
	}
	vb := wire.GetBuf()
	defer wire.PutBuf(vb)
	for _, e := range b.Entries {
		c.mu.Lock()
		if b.ID <= c.since {
			c.mu.Unlock()
			return
		}
		it := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}
		backed := true
		if e.NotModified {
			m, _ := c.relay.store.GetCopy(e.Key, vb.B[:0])
			vb.B, it.Value = m.Value, m.Value
			backed = m.Version == e.Version
		}
		if backed {
			c.answerLocked(it, e.Allocate, e.Window, b.ID)
			c.mu.Lock()
		}
		retry := c.unparkLocked(e.Key, func(w *readWaiter) bool { return w.ticket == b.ID })
		c.mu.Unlock()
		for w := retry; w != nil; {
			next := w.next
			w.next = nil
			c.readThrough(w.fetch)
			w = next
		}
	}
}

// noteFloorLocked raises key's read floor to v when floor tracking is
// on. Caller holds c.mu. key is retained, so it must be owned: an
// assignment stores the key it is given even when the entry exists.
func (c *Client) noteFloorLocked(key string, v uint64) {
	if c.trackFloors && v > c.floors[key] {
		c.floors[key] = v
	}
}

// DropCopy voluntarily deallocates key — the placement policy decided
// this station should not hold it. The window rides the DeleteReq so the
// server adopts the true read/write history, and on a relay the drop
// cascades to the children. Reports whether a copy was actually held.
func (c *Client) DropCopy(key string) bool {
	// The drop is decided under c.mu, so an allocating answer either
	// installs before it (and is dropped here) or finds its id below the
	// DeleteReq's mark.
	c.mu.Lock()
	own, win, ok := c.cache.Drop(key, false)
	if !ok {
		c.mu.Unlock()
		return false
	}
	// An offline send is lost, but so is the copy: the next resync simply
	// does not declare the key, and a server that still believes in the
	// copy is corrected by the re-asserted DeleteReq its next propagation
	// provokes.
	c.deallocate(own, win, "placement", 0)
	return true
}

// SetApplyHandler registers f to receive every fresh value the client
// learns passively from its server — write propagations and resync
// re-ships, not read answers. f runs on the transport delivery
// goroutine after the client's lock is released; the item's Key is the
// cache's own and may be retained, its Value is borrowed and must be
// copied at any retention point.
func (c *Client) SetApplyHandler(f func(it db.Item)) {
	c.applyFn.Store(&f)
}

// SetDropHandler registers f to be told whenever the client's copy of a
// key is dropped by protocol action (server DeleteReq, write-majority
// deallocation, resync deallocation, absorb, DropCopy). Not called for
// the wholesale drops of Disconnect, Reattach and fencing.
func (c *Client) SetDropHandler(f func(key string)) {
	c.dropFn.Store(&f)
}

// SetTrackFloors turns per-key read floors on or off. With floors on,
// every singleton read carries the highest version this client has
// observed for the key and refuses to complete below it, making reads
// monotone per key across relay staleness and reconnects (joint reads
// record floors but are not gated). Floors reset on Reattach and on an
// epoch fence — a cold restart is allowed to start over, and a fenced
// authority may legitimately have rolled back.
func (c *Client) SetTrackFloors(on bool) {
	c.mu.Lock()
	c.trackFloors = on
	if on && c.floors == nil {
		c.floors = make(map[string]uint64)
	}
	c.mu.Unlock()
}
