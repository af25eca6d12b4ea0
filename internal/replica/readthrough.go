package replica

import (
	"sync"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/wire"
)

// Client-side relay hooks. A support station's parent face is a Client;
// the station fetches through it with ReadThrough (a pooled Fetch record,
// never a parked goroutine), mirrors parent-face state changes downward
// through the apply/drop/fence handlers, and sheds copies the placement
// policy vetoes with DropCopy. Read floors (SetTrackFloors) make reads
// monotone per key even when a relay's copy lags the root.

// readWaiter is one parked singleton read: the channel its goroutine
// waits on — or, for a relay's read-through, the Fetch record to complete
// instead — the floor its request carried (0 = none), the ticket its
// parking drew and the next-younger read parked on the same key. A
// response below a waiter's floor is not its answer and must not complete
// it.
//
// Waiters are pooled, channel and timeout timer included, so a remote
// read allocates nothing but the value it returns. What makes reuse safe
// is ownership: whoever unlinks a waiter from Client.pending under c.mu
// is the only party that may still complete it. A reader recycles its
// waiter after taking the one response, or after unlinking it itself
// (cancelPending reports true); a waiter it lost to onReadResp,
// onReadFail or failWaiters it abandons — a late response or a close must
// land on a channel no later read will ever see. A Fetch is recycled by
// whoever completes it (Fetch.Done), so a ReadThrough that lost its
// record may find it parked again for a later read; the ticket tells the
// two apart.
type readWaiter struct {
	ch     chan readResult
	fetch  *Fetch // the relay read this waiter parks; nil for ReadContext
	key    string // the reader's own key: what Client.pending is indexed by
	floor  uint64
	ticket uint64 // drawn by parkLocked, under c.mu
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

// Fetch is one child read in flight through a relay: the record a relay
// server hands its Origin, which the parent face parks (ReadThrough) and
// completes through its read-through handler, and which Done hands back
// to the server to answer the child. Records are pooled and carry no
// func value, so a hop through a relay allocates nothing once the key is
// known to the station. A record belongs to whoever holds it last: it
// must not be touched after Done.
type Fetch struct {
	w        readWaiter // the record's place on the parent face's parked chain
	ss       *Session
	batch    *fetchBatch // the joint read or resync this key is part of; nil for a singleton
	upstream bool        // ReadThrough parked it for the parent's answer
}

var fetchPool = sync.Pool{New: func() any {
	f := new(Fetch)
	f.w.fetch = f
	return f
}}

// newFetch takes a record for ss's read of key, which must be owned.
func newFetch(ss *Session, key string, floor uint64, fb *fetchBatch) *Fetch {
	f := fetchPool.Get().(*Fetch)
	f.w.key, f.w.floor, f.ss, f.batch = key, floor, ss, fb
	return f
}

// Key returns the key the child reads. It is owned, and may be retained.
func (f *Fetch) Key() string { return f.w.key }

// Upstream reports whether ReadThrough sent the read to the parent rather
// than answering it from the station's own copy.
func (f *Fetch) Upstream() bool { return f.upstream }

// Done hands the fetch back to the server that started it: ok serves the
// child from the store (or counts the key toward its batch), !ok refuses
// the read. The record is recycled.
func (f *Fetch) Done(ok bool) {
	ss, fb, key := f.ss, f.batch, f.w.key
	*f = Fetch{w: readWaiter{fetch: f}}
	fetchPool.Put(f)
	if fb != nil {
		fb.done(ss, ok)
	} else {
		ss.finishReadReq(key, ok)
	}
}

// ReadThrough is a relay's read of f's key through the parent face, and
// never blocks: answered synchronously from the local copy when it
// satisfies the floor, otherwise parked until the response arrives (or
// abandoned — offline, link failure, or a reconnect clearing the waiters).
// Either way the read-through handler (SetReadThroughHandler) completes f
// exactly once, on the caller's goroutine or a transport delivery
// goroutine; the item's Value is only valid for the duration of the call
// and must be copied at any retention point. The exception is a response
// lost in transit with no subsequent reconnect: the caller's retry
// machinery owns that case, exactly as a timed-out Read does.
func (c *Client) ReadThrough(f *Fetch) {
	w := &f.w
	key := w.key
	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		mReadOffline.Inc()
		c.fetched(f, db.Item{}, false)
		return
	}
	if fl := c.floors[key]; fl > w.floor {
		// The client's own floor folds in: the subtree below a relay gets
		// collectively monotone reads, not just per original requester.
		w.floor = fl
	}
	if it, ok := c.cache.Get(key, w.floor); ok {
		c.noteFloorLocked(key, it.Version)
		c.mu.Unlock()
		mReadLocal.Inc()
		c.fetched(f, it, true)
		return
	}
	// A held copy below the floor stays held: the remote answer is
	// absorbed like a one-key resync (see onReadResp). Once parked, f
	// belongs to whoever unlinks it: only what was read before is used.
	f.upstream = true
	c.parkLocked(w)
	floor, ticket, link := w.floor, w.ticket, c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		c.suspect(link, err)
		// Only the goroutine that actually removed the waiter may fail it:
		// a concurrent Suspend that already took the waiter set fails it
		// through failWaiters.
		if c.cancelPending(key, w, ticket, link) {
			mReadOffline.Inc()
			c.fetched(f, db.Item{}, false)
		}
		return
	}
	mReadRemote.Inc()
}

// fetched completes f through the read-through handler.
func (c *Client) fetched(f *Fetch, it db.Item, ok bool) {
	(*c.fetchFn.Load())(f, it, ok)
}

// SetReadThroughHandler registers h to complete every ReadThrough, which
// needs one: a relay mirrors the item into its store, then calls f.Done.
// h runs on the caller's goroutine or a transport delivery goroutine,
// after the client's lock is released; it.Value is borrowed.
func (c *Client) SetReadThroughHandler(h func(f *Fetch, it db.Item, ok bool)) {
	c.fetchFn.Store(&h)
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
// server adopts the true read/write history, and the drop cascades
// through the drop handler. Reports whether a copy was actually held.
func (c *Client) DropCopy(key string) bool {
	// The drop is decided under c.mu, so an allocating answer either
	// installs before it (and is dropped here) or finds its read disowned.
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
// re-ships (reads complete through the read-through handler instead, so
// a fetch never double-fires). f runs on the transport delivery
// goroutine after the client's lock is released; the item's Key is the
// cache's own and may be retained, its Value is borrowed and must be
// copied at any retention point.
func (c *Client) SetApplyHandler(f func(it db.Item)) {
	c.applyFn.Store(&f)
}

// SetDropHandler registers f to be told whenever the client's copy of a
// key is dropped by protocol action (server DeleteReq, write-majority
// deallocation, resync deallocation, absorb, DropCopy) — the relay's cue
// to cascade the revocation to its own children. Not called for the
// wholesale drops of Disconnect/Reattach/fencing; the fence handler
// covers those.
func (c *Client) SetDropHandler(f func(key string)) {
	c.dropFn.Store(&f)
}

// SetFenceHandler registers f to run when the client fences on an epoch
// change: the authority restarted, every warm copy was dropped, and a
// relay must invalidate its whole subtree before serving again. f runs
// off the client's lock.
func (c *Client) SetFenceHandler(f func()) {
	c.mu.Lock()
	c.fenceFn = f
	c.mu.Unlock()
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
