package replica

import (
	"strings"
	"sync"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/sched"
	"mobirep/internal/wire"
)

// Client-side relay hooks. A support station's parent face is a Client;
// the station fetches through it with ReadThrough (continuation-style,
// never parking a goroutine), mirrors parent-face state changes downward
// through the apply/drop/fence handlers, and sheds copies the placement
// policy vetoes with DropCopy. Read floors (SetTrackFloors) make reads
// monotone per key even when a relay's copy lags the root.

// readWaiter is one parked singleton read: the channel its goroutine
// waits on, the floor its request carried (0 = none) and the next-younger
// read parked on the same key. A response below the head waiter's floor
// is a stale duplicate and must not complete the read.
//
// Waiters are pooled, channel and timeout timer included, so a remote
// read allocates nothing but the value it returns. What makes reuse safe
// is ownership of ch: whoever unlinks a waiter from Client.pending under
// c.mu is the only party that may still send on or close its channel. A
// reader recycles its waiter after taking the one response, or after
// unlinking it itself (cancelPending reports true); a waiter it lost to
// onReadResp or failWaiters it abandons — a late response or a close
// must land on a channel no later read will ever see.
type readWaiter struct {
	ch    chan readResult
	key   string // the reader's own key: what Client.pending is indexed by
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

// fnWaiter is one continuation-style read (ReadThrough). Identified by
// pointer for cancellation — closures are not comparable.
type fnWaiter struct {
	fn    func(msg wire.Message, ok bool)
	floor uint64
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
	st := c.state(key)
	if st.hasCopy {
		if it, ok := c.cache.Get(key); ok && it.Version >= floor {
			if st.kind == ModeSW {
				st.window.Push(sched.Read)
			}
			c.noteFloorLocked(key, it.Version)
			c.mu.Unlock()
			mReadLocal.Inc()
			done(it, true)
			return
		} else if !ok {
			// Cache and allocation state disagree (a concurrent Drop);
			// repair and go remote, as ReadContext does.
			st.hasCopy = false
		}
		// A held copy below the floor stays held: the remote answer is
		// absorbed like a one-key resync (see absorbLocked).
	} else {
		c.cache.Get(key) // record the miss
	}
	fw := &fnWaiter{fn: func(msg wire.Message, ok bool) {
		if !ok {
			done(db.Item{}, false)
			return
		}
		// msg is borrowed; the item hands the caller's own key back so
		// nothing retains transport memory by accident.
		done(db.Item{Key: key, Value: msg.Value, Version: msg.Version}, true)
	}, floor: floor}
	kc := strings.Clone(key)
	c.pendingFn[kc] = append(c.pendingFn[kc], fw)
	link := c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendControlOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		// Only the goroutine that actually removed the waiter may fail it:
		// a concurrent Suspend that already took the waiter set will fail
		// it through failWaiters.
		if c.cancelFn(key, fw) {
			mReadOffline.Inc()
			done(db.Item{}, false)
		}
		return
	}
	mReadRemote.Inc()
}

// cancelFn removes fw from key's continuation waiters, reporting whether
// it was still registered.
func (c *Client) cancelFn(key string, fw *fnWaiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	waiters := c.pendingFn[key]
	for i, w := range waiters {
		if w == fw {
			c.pendingFn[key] = append(waiters[:i], waiters[i+1:]...)
			return true
		}
	}
	return false
}

// headFloorLocked returns the floor of the oldest waiter for key, of
// either kind (the transport is FIFO, so the next response answers the
// head). 0 when no waiter or no floor. Caller holds c.mu.
func (c *Client) headFloorLocked(key string) uint64 {
	if w := c.pending[key]; w != nil {
		return w.floor
	}
	if fns := c.pendingFn[key]; len(fns) > 0 {
		return fns[0].floor
	}
	return 0
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

// Floor returns the client's read floor for key (0 when floor tracking
// is off or the key has never been read).
func (c *Client) Floor(key string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floors[key]
}

// absorbLocked folds a remote read answer into a still-held copy.
// ReadThrough goes remote while holding a copy only when the cached
// version sits below the requested floor, which means the propagation
// path lost writes; account for them exactly like a one-key resync —
// slide the window by the missed writes (capped at K, beyond which
// older pushes would have slid out anyway) and deallocate on a write
// majority. Returns the DeleteReq to send upstream (nil if none) and
// the key whose drop must cascade downward ("" if none). Caller holds
// c.mu.
func (c *Client) absorbLocked(msg wire.Message) (*wire.Message, string) {
	st, ok := c.items[msg.Key]
	if !ok || !st.hasCopy {
		return nil, ""
	}
	cur, _ := c.cache.Peek(msg.Key)
	if !c.cache.Update(db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version}) {
		return nil, ""
	}
	if st.kind != ModeSW {
		return nil, ""
	}
	missed := int(msg.Version - cur.Version)
	if missed > st.window.Size() {
		missed = st.window.Size()
	}
	for i := 0; i < missed; i++ {
		st.window.Push(sched.Write)
	}
	if st.window.ReadMajority() {
		return nil, ""
	}
	st.hasCopy = false
	key := strings.Clone(msg.Key)
	c.cache.Drop(key)
	mDeallocs.Inc()
	obsTr.Record(obs.EvDeallocate, key, "absorb", int64(msg.Version), 0)
	return &wire.Message{Kind: wire.KindDeleteReq, Key: key, Window: st.window}, key
}

// DropCopy voluntarily deallocates key — the placement policy decided
// this station should not hold it. The window rides the DeleteReq so the
// server adopts the true read/write history, and the drop cascades
// through the drop handler. Reports whether a copy was actually held.
func (c *Client) DropCopy(key string) bool {
	c.mu.Lock()
	st, ok := c.items[key]
	if !ok || !st.hasCopy {
		c.mu.Unlock()
		return false
	}
	st.hasCopy = false
	out := wire.Message{Kind: wire.KindDeleteReq, Key: key}
	if st.kind == ModeSW {
		out.Window = st.window
	}
	c.cache.Drop(key)
	drop := c.dropFn
	c.mu.Unlock()
	mDeallocs.Inc()
	obsTr.Record(obs.EvDeallocate, key, "placement", 0, 0)
	// An offline send is lost, but so is the copy: the next resync simply
	// does not declare the key, and a server that still believes in the
	// copy is corrected by the re-asserted DeleteReq its next propagation
	// provokes.
	_ = c.sendControl(out)
	if drop != nil {
		drop(key)
	}
	return true
}

// SetApplyHandler registers f to receive every fresh value the client
// learns passively from its server — write propagations and resync
// re-ships (reads complete through their own continuations instead, so
// a fetch never double-fires). f runs on the transport delivery
// goroutine after the client's lock is released; the item's Value is
// borrowed and must be copied at any retention point.
func (c *Client) SetApplyHandler(f func(it db.Item)) {
	c.mu.Lock()
	c.applyFn = f
	c.mu.Unlock()
}

// SetDropHandler registers f to be told whenever the client's copy of a
// key is dropped by protocol action (server DeleteReq, write-majority
// deallocation, resync deallocation, absorb, DropCopy) — the relay's cue
// to cascade the revocation to its own children. Not called for the
// wholesale drops of Disconnect/Reattach/fencing; the fence handler
// covers those.
func (c *Client) SetDropHandler(f func(key string)) {
	c.mu.Lock()
	c.dropFn = f
	c.mu.Unlock()
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
