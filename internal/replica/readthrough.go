package replica

import (
	"strings"
	"sync"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/wire"
)

// Client-side relay hooks. A support station's parent face is a Client;
// the station fetches through it with ReadThrough (continuation-style,
// never parking a goroutine), mirrors parent-face state changes downward
// through the apply/drop/fence handlers, and sheds copies the placement
// policy vetoes with DropCopy. Read floors (SetTrackFloors) make reads
// monotone per key even when a relay's copy lags the root.

// readWaiter is one parked singleton read: the channel its goroutine
// waits on — or, for ReadThrough, the continuation to run instead — the
// floor its request carried (0 = none) and the next-younger read parked
// on the same key. A response below a waiter's floor is not its answer
// and must not complete it.
//
// Waiters are pooled, channel and timeout timer included, so a remote
// read allocates nothing but the value it returns. What makes reuse safe
// is ownership of ch: whoever unlinks a waiter from Client.pending under
// c.mu is the only party that may still send on or close its channel. A
// reader recycles its waiter after taking the one response, or after
// unlinking it itself (cancelPending reports true); a waiter it lost to
// onReadResp, onReadFail or failWaiters it abandons — a late response or a close
// must land on a channel no later read will ever see.
type readWaiter struct {
	ch    chan readResult
	fn    func(it db.Item, ok bool) // ReadThrough's continuation; nil for ReadContext
	key   string                    // the reader's own key: what Client.pending is indexed by
	floor uint64
	next  *readWaiter
	timer *time.Timer // created by the first read with a Timeout
	armed bool        // timer is running, or its tick is unconsumed
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

// ReadThrough performs a read that never blocks: served synchronously
// from the local copy when it satisfies floor, otherwise done is
// registered as a continuation and runs when the response arrives (or
// with ok=false if the read is abandoned — offline, link failure, or a
// reconnect clearing the waiters). done runs on the caller's goroutine
// or a transport delivery goroutine; the item's Value is only valid for
// the duration of the call and must be copied at any retention point.
// done is called exactly once unless the response is lost in transit
// with no subsequent reconnect (the caller's retry machinery owns that
// case, exactly as a timed-out Read does).
func (c *Client) ReadThrough(key string, floor uint64, done func(it db.Item, ok bool)) {
	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		mReadOffline.Inc()
		done(db.Item{}, false)
		return
	}
	if f := c.floors[key]; f > floor {
		// The client's own floor folds in: the subtree below a relay gets
		// collectively monotone reads, not just per original requester.
		floor = f
	}
	if it, ok := c.cache.Get(key, floor); ok {
		c.noteFloorLocked(key, it.Version)
		c.mu.Unlock()
		mReadLocal.Inc()
		done(it, true)
		return
	}
	// A held copy below the floor stays held: the remote answer is
	// absorbed like a one-key resync (see onReadResp). key is retained
	// while the read is parked.
	w := &readWaiter{fn: done, key: key, floor: floor}
	c.parkLocked(w)
	link := c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		c.suspect(link, err)
		// Only the goroutine that actually removed the waiter may fail it:
		// a concurrent Suspend that already took the waiter set fails it
		// through failWaiters.
		if c.cancelPending(w, link) {
			mReadOffline.Inc()
			done(db.Item{}, false)
		}
		return
	}
	mReadRemote.Inc()
}

// noteFloorLocked raises key's read floor to v when floor tracking is
// on. Caller holds c.mu; key may be borrowed (cloned on insert).
func (c *Client) noteFloorLocked(key string, v uint64) {
	if !c.trackFloors || v == 0 {
		return
	}
	if v > c.floors[key] {
		c.floors[strings.Clone(key)] = v
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
// re-ships (reads complete through their own continuations instead, so
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
