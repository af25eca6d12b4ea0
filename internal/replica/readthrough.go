package replica

import (
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/wire"
)

// Every remote read is one request of n keys, whether n is 1 or more: an
// MC's ReadContext or ReadMany, or a child's read at a relay, which the
// relay's parent face reads through for it with gather, never a parked
// goroutine. Read floors make reads monotone per key even when a relay's
// copy lags the root.

// readWaiter is one key of a remote read: its request, the floor the
// key's read carries (0 = none), the id it is parked under in
// Client.pending (0 when not parked) and the next-younger read parked on
// the same key. A response below a waiter's floor is not its answer and
// must not complete it. value and version carry a reader's answer to its
// goroutine, and a relay's local serve to gather.
type readWaiter struct {
	req     *request
	key     string // what Client.pending is indexed by: the reader's own, or the mirror store's
	floor   uint64
	ticket  uint64
	next    *readWaiter
	value   []byte
	version uint64
}

// request is one read of n keys, one waiter per key in ws. A reader's
// (ReadContext, ReadMany) wakes its goroutine on ch once every key has
// resolved; a child's read at a relay (ss set) holds the child's request,
// b, its keys the mirror store's own, and answers it once every key has
// resolved (Session.finishRead). left counts the keys still to resolve,
// plus one the starter holds while it reads the record; failed says one
// failed.
//
// Ownership makes reuse safe: whoever unlinks a waiter from
// Client.pending under c.mu is the only party that may resolve it, and
// whoever resolves the last key ends the request. A reader recycles its
// record after the wake-up, or after unparking every key still parked
// itself (Client.cancel); one it lost to a resolver it abandons, as a
// wake-up is on its way. A relay's record goes back to its session's
// shard once the child is answered (shard.keepRequest). No parked record
// is reused: a request is found by its id — a joint one in Client.reqs, a
// singleton by its key in Client.pending — only while a key of it is
// parked.
type request struct {
	ws     []readWaiter
	left   atomic.Int32
	failed atomic.Bool

	ch    chan struct{}
	timer *time.Timer // created by the first read with a Timeout
	armed bool        // timer is running, or its tick is unconsumed

	ss *Session
	b  wire.Batch
	up wire.Batch // what gather asks the parent, encoded under c.mu
}

// readerPool holds readers' records, channel and timeout timer included,
// so a remote read allocates nothing but the value it returns. A reader
// recycles its record without a lock; a relay's records come from its
// shards instead (shard.takeRequest).
var readerPool = sync.Pool{New: func() any { return &request{ch: make(chan struct{}, 1)} }}

// newReader takes a reader's record for n keys.
func newReader(n int) *request {
	r := readerPool.Get().(*request)
	if cap(r.ws) < n {
		r.ws = make([]readWaiter, n)
	}
	r.ws = r.ws[:n]
	r.left.Store(int32(n))
	return r
}

// done resolves one key of r, failed unless ok. The last one ends the
// request: it wakes the reader, or answers the child's read at a relay —
// refuses it, if a key failed — and recycles the record.
func (r *request) done(ok bool) {
	if !ok {
		r.failed.Store(true)
	}
	if r.left.Add(-1) != 0 {
		return
	}
	if r.ss == nil {
		r.ch <- struct{}{}
		return
	}
	r.ss.finishRead(&r.b, !r.failed.Load(), r)
}

// chain links r's waiters, in key order, into the chain gather takes.
func (r *request) chain() *readWaiter {
	for i := 1; i < len(r.ws); i++ {
		r.ws[i-1].next = &r.ws[i]
	}
	return &r.ws[0]
}

// arm starts the reader's timeout and returns the channel it ticks on.
func (r *request) arm(d time.Duration) <-chan time.Time {
	if r.timer == nil {
		r.timer = time.NewTimer(d)
	} else {
		r.timer.Reset(d)
	}
	r.armed = true
	return r.timer.C
}

// release ends a reader's use of r and, when recycle says no resolver can
// still wake it (see request), returns it to the pool. A timer may be
// reused only once it is stopped with nothing in its channel: Stop
// reporting true proves that, and so does having consumed the tick (the
// reader clears armed). When Stop loses the race with expiry the tick is
// still on its way — under go.mod's go 1.22 timer semantics a drain could
// miss it, and a later read would time out at once — so that timer is
// dropped and the next arm makes a new one.
func (r *request) release(recycle bool) {
	if r.armed && !r.timer.Stop() {
		r.timer = nil
	}
	r.armed = false
	if recycle {
		if r.failed.Load() {
			r.failed.Store(false)
		}
		readerPool.Put(r)
	}
}

// fail fails every read on the chain from w, which the caller has
// unlinked, and returns how many: a key failed fails a reader's request,
// and a child's read at a relay is refused once all its keys resolve.
func fail(w *readWaiter) int {
	n := 0
	for ; w != nil; n++ {
		next := w.next
		if w.req.ss != nil {
			mFetchFailed.Inc()
		}
		w.req.done(false)
		w = next
	}
	return n
}

// gather reads the keys on the chain todo, waiters of one child's read at
// this relay, through the parent face, and never blocks. Each key the
// station's own copy serves at its floor resolves from it; the rest go up
// as one request with one id, in the form asked: a MultiReadReq (joint)
// whose hints name only versions the mirror holds, so a NotModified
// answer is backed by the mirror's value, or a ReadReq carrying the key's
// floor (a child's singleton read, or a key a joint answer left below its
// floor, which goes up again alone). The answer resolves them (onAnswer);
// a failed send, a refusal or a reconnect fails them. A key may resolve
// on the caller's goroutine or a transport delivery goroutine, and once
// parked it belongs to whoever unlinks it. A response lost in transit
// with no subsequent reconnect is the retry machinery's, exactly as a
// timed-out Read is.
func (c *Client) gather(todo *readWaiter, joint bool) {
	r := todo.req
	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		mReadOffline.Add(uint64(fail(todo)))
		return
	}
	// Served values are copied out, back to back, into one pooled buffer.
	vb := wire.GetBuf()
	var local, up *readWaiter
	lt, ut, n := &local, &up, 0
	for w := todo; w != nil; {
		next := w.next
		w.next = nil
		off := len(vb.B)
		if it, ok := c.serveLocked(w, vb.B); ok {
			vb.B = it.Value
			w.value, w.version = vb.B[off:], it.Version
			*lt, lt = w, &w.next
		} else {
			*ut, ut = w, &w.next
			n++
		}
		w = next
	}
	var frame *wire.Buf
	var id uint64
	if up != nil {
		// A held copy below the floor stays held: the remote answer is
		// absorbed like a one-key resync (see answerLocked).
		id = c.openLocked(r, n, joint)
		r.up = wire.Batch{Kind: wire.KindReadReq, ID: id, Keys: r.up.Keys[:0], Versions: r.up.Versions[:0]}
		if joint {
			r.up.Kind = wire.KindMultiReadReq
		}
		for w := up; w != nil; {
			next := w.next
			w.next = nil
			h := w.floor
			if joint {
				h = c.relay.store.Version(w.key)
			}
			r.up.Keys, r.up.Versions = append(r.up.Keys, w.key), append(r.up.Versions, h)
			c.queueLocked(w, id)
			w = next
		}
		var err error
		if frame, err = encodeFrame(&r.up); err != nil {
			panic(err)
		}
	}
	link := c.link
	c.mu.Unlock()

	if frame != nil {
		if err := c.sendFrame(link, frame); err != nil {
			c.suspect(link, err)
			c.mu.Lock()
			failed := c.takeLocked(r, id)
			c.mu.Unlock()
			mReadOffline.Add(uint64(fail(failed)))
		} else {
			mReadRemote.Add(uint64(n))
			if joint {
				mJointReads.Inc()
			}
		}
	}
	for w := local; w != nil; {
		// The value is vb's, which a kept record must not hold on to.
		next, it := w.next, db.Item{Value: w.value, Version: w.version}
		w.value = nil
		mReadLocal.Inc()
		mFetchLocal.Inc()
		c.relay.fetched(w, it)
		w = next
	}
	wire.PutBuf(vb)
}

// serveLocked folds the parent face's floor for w's key into w's, and
// reads the station's own copy out, appended to dst, if it clears that
// floor. The client's floor folds in so that the subtree below a relay
// gets collectively monotone reads, not just per original requester; the
// copy is copied out, not lent, because a lent value would make the key's
// next WriteProp clone into a fresh buffer. The caller holds c.mu.
func (c *Client) serveLocked(w *readWaiter, dst []byte) (db.Item, bool) {
	if fl := c.floors[w.key]; fl > w.floor {
		w.floor = fl
	}
	it, ok := c.cache.GetCopy(w.key, w.floor, dst)
	if ok {
		c.noteFloorLocked(w.key, it.Version)
	}
	return it, ok
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
