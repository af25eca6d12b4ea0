package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/mobile"
	"mobirep/internal/obs"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Client is the mobile computer: it serves reads from its local cache when
// a copy is allocated and runs the MC side of the allocation protocol.
// The cache is the MC's one record per key — copy, allocation bit and
// window — so a propagated write or a revocation runs under the cache's
// lock alone; c.mu guards the link, the parked reads, the request ids,
// the floors and the epoch.
type Client struct {
	link  transport.Link
	cache *mobile.Cache
	meter *Meter

	mu      sync.Mutex
	pending map[string]*readWaiter // per key, the parked reads, oldest first
	reqs    []inflight             // the joint requests with a key parked, by id
	// seq is the last request id drawn: every read request and every
	// DeleteReq sent takes the next one. marks holds, per key the MC has
	// deallocated, seq at its last DeleteReq, sent or received, and since
	// is seq at the last link change (see installLocked). The map keeps
	// the keys it is given, so they must be owned.
	seq, since uint64
	marks      map[string]uint64
	offline    bool
	// epoch is the server store epoch the client has adopted (0 = not yet
	// learned); fenced latches once an epoch change forced the warm state
	// to be dropped, until a cold Reattach. See epoch.go.
	epoch  uint64
	fenced bool
	// staleMax, when positive, lets offline reads serve the last known
	// value (flagged with ErrStale) if it was confirmed fresh within
	// this age. See AllowStale.
	staleMax time.Duration
	// resyncDone, when non-nil, is closed once the in-flight warm
	// resync ends (see ResumeResync).
	resyncDone chan struct{}
	// onLinkError, if set, is told about failures on the current link —
	// the reconnect supervisor's failure-detection hook.
	onLinkError func(error)
	// onPong, if set, receives each Pong's sequence number.
	onPong func(seq uint64)
	// onBusy, if set, receives the server's overload signals: the reason
	// and the retry-after hint from each Busy frame.
	onBusy func(retryAfter time.Duration, reason string)

	// relay is the server this client is the parent face of (relay.go);
	// nil for an MC. Its fetches complete through it, and what the client
	// learns passively — values, drops, fences — reaches its children
	// through it. applyFn/dropFn tell an MC's own observer the same (nil
	// until set, or pointing at a nil func once cleared), read without
	// c.mu so applying a write takes no lock but the cache's. trackFloors
	// turns on per-key read floors: remote reads then carry the highest
	// version this client has observed, making reads monotone per key even
	// across relay staleness. A relay's parent face tracks floors; an MC
	// stays wire-identical unless asked.
	relay       *Server
	applyFn     atomic.Pointer[func(it db.Item)]
	dropFn      atomic.Pointer[func(key string)]
	trackFloors bool
	floors      map[string]uint64

	// Timeout bounds how long a remote read waits for its response;
	// zero means wait forever (the in-memory transport responds inline).
	Timeout time.Duration
}

// ErrTimeout is returned by Read when the server response does not arrive
// within the client's Timeout.
var ErrTimeout = errors.New("replica: read timed out")

// NewClient creates the MC endpoint over the given link. mode must match
// the server's mode. The link's handler is installed by NewClient.
func NewClient(link transport.Link, mode Mode) (*Client, error) {
	return newClient(link, mode, nil)
}

// newClient is NewClient for relay's parent face, when relay is not nil:
// wired to it, with floors on, before the link can deliver a frame.
func newClient(link transport.Link, mode Mode, relay *Server) (*Client, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	cache := mobile.NewCache()
	if mode.Kind == core.KindSW {
		cache = mobile.NewWindowCache(mode.K)
	}
	c := &Client{
		link:    link,
		cache:   cache,
		meter:   newMeter(mcMirror),
		pending: make(map[string]*readWaiter),
		marks:   make(map[string]uint64),
	}
	if relay != nil {
		c.relay, c.trackFloors, c.floors = relay, true, make(map[string]uint64)
	}
	link.SetHandler(c.onFrame)
	return c, nil
}

// Meter returns the MC-side traffic meter.
func (c *Client) Meter() *Meter { return c.meter }

// Cache exposes the local cache for inspection (hit rates, contents).
func (c *Client) Cache() *mobile.Cache { return c.cache }

// HasCopy reports whether the MC currently holds a copy of key.
func (c *Client) HasCopy(key string) bool { return c.cache.Contains(key) }

// AwaitingRead reports whether a remote read of key is parked on the
// client awaiting its response: false before the read registers and again
// once a response, a Suspend or a Disconnect has released it.
func (c *Client) AwaitingRead(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[key] != nil
}

// Read performs a read at the mobile computer: local when a copy exists,
// remote (one control request, one data response) otherwise. A remote read
// may allocate a copy, as decided by the server per section 4. It is
// ReadContext with no cancellation.
func (c *Client) Read(key string) (db.Item, error) {
	return c.ReadContext(context.Background(), key)
}

// ReadContext is Read with a per-request deadline: a remote read gives up
// with ctx.Err() when the context is cancelled or its deadline passes,
// on top of the client-wide Timeout. Local reads never block.
func (c *Client) ReadContext(ctx context.Context, key string) (db.Item, error) {
	c.mu.Lock()
	if c.offline {
		if c.fenced {
			// The authority restarted and the warm state is gone; advertise
			// the reason instead of a generic offline (the fence dropped the
			// cache, so there is nothing stale to serve either).
			c.mu.Unlock()
			mReadOffline.Inc()
			return db.Item{}, ErrEpochChanged
		}
		staleMax := c.staleMax
		c.mu.Unlock()
		return c.staleRead(key, staleMax)
	}
	if it, ok := c.cache.Get(key, 0); ok {
		// Local read: the MC is in charge, and the cache slid its window.
		c.noteFloorLocked(it.Key, it.Version)
		c.mu.Unlock()
		mReadLocal.Inc()
		return it, nil
	}
	var floor uint64
	if c.trackFloors {
		floor = c.floors[key]
	}
	r := newReader(1)
	r.ws[0] = readWaiter{req: r, key: key, floor: floor}
	id := c.openLocked(r, 1, false)
	c.queueLocked(&r.ws[0], id)
	link := c.link
	c.mu.Unlock()

	keys, floors := [1]string{key}, [1]uint64{floor}
	err := c.ask(ctx, r, link, &wire.Batch{Kind: wire.KindReadReq, ID: id, Keys: keys[:], Versions: floors[:]})
	switch {
	case err == nil:
		mReadRemote.Inc()
		it := db.Item{Key: key, Value: r.ws[0].value, Version: r.ws[0].version}
		r.release(true)
		return it, nil
	case errors.Is(err, ErrOffline):
		mReadOffline.Inc()
	case err == ErrTimeout:
		mReadTimeout.Inc()
	case err == ctx.Err():
		mReadCanceled.Inc()
	}
	return db.Item{}, err
}

// ask sends the request b on link — its keys r's, parked under b.ID — and
// waits until every key has resolved. It returns nil once all were
// answered (the caller takes the values and releases r), the encoding
// error when b cannot be encoded, ErrOffline when the request could not
// be sent or a key was refused or failed, ErrTimeout after the client's
// Timeout (the link is then suspect), or ctx.Err().
func (c *Client) ask(ctx context.Context, r *request, link transport.Link, b *wire.Batch) error {
	frame, err := encodeFrame(b)
	if err != nil {
		r.release(c.cancel(r, b.ID))
		return err
	}
	if err := c.sendFrame(link, frame); err != nil {
		// A link that fails mid-send is an offline condition to the caller
		// (the suspect hook tells the recovery layer); the transport detail
		// rides along for diagnostics.
		c.suspect(link, err)
		r.release(c.cancel(r, b.ID))
		return fmt.Errorf("%w: %v", ErrOffline, err)
	}
	var timeout <-chan time.Time
	if c.Timeout > 0 {
		timeout = r.arm(c.Timeout)
	}
	select {
	case <-r.ch:
		if r.failed.Load() {
			r.release(true)
			return ErrOffline
		}
		return nil
	case <-timeout:
		r.armed = false // the tick is consumed
		r.release(c.cancel(r, b.ID))
		// A silent link is as suspect as a failing one.
		c.suspect(link, ErrTimeout)
		return ErrTimeout
	case <-ctx.Done():
		r.release(c.cancel(r, b.ID))
		return ctx.Err()
	}
}

// staleRead serves an offline read from the last known value when
// AllowStale permits it, flagging the result with ErrStale.
func (c *Client) staleRead(key string, staleMax time.Duration) (db.Item, error) {
	if staleMax <= 0 {
		mReadOffline.Inc()
		return db.Item{}, ErrOffline
	}
	it, age, ok := c.cache.LastKnown(key)
	if !ok || age > staleMax {
		mReadOffline.Inc()
		return db.Item{}, ErrOffline
	}
	mReadStale.Inc()
	obsTr.Record(obs.EvStaleRead, key, "", int64(age/time.Millisecond), 0)
	return it, ErrStale
}

// inflight is a request with a key parked: its id, its record, and how
// many of its keys are parked under the id.
type inflight struct {
	id uint64
	r  *request
	n  int
}

// openLocked draws the next request id for r, whose n keys the caller
// parks under it next (queueLocked). A joint request is indexed by its id
// in c.reqs, as its refusal names none of its keys; a singleton is found
// by its one key. The caller holds c.mu.
func (c *Client) openLocked(r *request, n int, joint bool) uint64 {
	c.seq++
	if joint {
		c.reqs = append(c.reqs, inflight{id: c.seq, r: r, n: n})
	}
	return c.seq
}

// queueLocked parks w under request id, behind the reads already waiting
// on its key. The caller holds c.mu.
func (c *Client) queueLocked(w *readWaiter, id uint64) {
	w.ticket = id
	q := c.pending[w.key]
	if q == nil {
		c.pending[w.key] = w
		return
	}
	for q.next != nil {
		q = q.next
	}
	q.next = w
}

// unparkLocked unlinks every read parked on key that take accepts and
// returns them as a chain, oldest first; a joint request none of whose
// keys is left parked is forgotten. The rest stay parked, stored under
// the head's own key: assigning under an existing string key replaces the
// stored key too, so never under a borrowed one. The caller holds c.mu.
func (c *Client) unparkLocked(key string, take func(w *readWaiter) bool) *readWaiter {
	var got *readWaiter
	head, tail := c.pending[key], &got
	for q := &head; *q != nil; {
		if w := *q; take(w) {
			*q, w.next = w.next, nil
			*tail, tail = w, &w.next
			if i, ok := c.findLocked(w.ticket); ok {
				if c.reqs[i].n--; c.reqs[i].n == 0 {
					last := len(c.reqs) - 1
					copy(c.reqs[i:], c.reqs[i+1:])
					c.reqs[last], c.reqs = inflight{}, c.reqs[:last]
				}
			}
			w.ticket = 0
		} else {
			q = &w.next
		}
	}
	if head == nil {
		delete(c.pending, key)
	} else {
		c.pending[head.key] = head
	}
	return got
}

// findLocked returns the index of request id in c.reqs, which is in id
// order; answers come mostly in request order, so the oldest is tried
// first. The caller holds c.mu.
func (c *Client) findLocked(id uint64) (int, bool) {
	if len(c.reqs) > 0 && c.reqs[0].id == id {
		return 0, true
	}
	lo, hi := 0, len(c.reqs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.reqs[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.reqs) && c.reqs[lo].id == id
}

// takeLocked unlinks every key of r still parked under request id and
// returns them as a chain. They hang off the record, so this walks one
// list. The caller holds c.mu.
func (c *Client) takeLocked(r *request, id uint64) *readWaiter {
	var got *readWaiter
	tail := &got
	for j := range r.ws {
		if w := &r.ws[j]; w.ticket == id {
			*tail = c.unparkLocked(w.key, func(x *readWaiter) bool { return x == w })
			tail = &w.next
		}
	}
	return got
}

// cancel unparks what is left of a reader's request id, r, and reports
// whether r may be recycled: only when no resolver holds a key of it, as
// the one that resolves the last would still wake r.ch.
func (c *Client) cancel(r *request, id uint64) bool {
	c.mu.Lock()
	n := 0
	for w := c.takeLocked(r, id); w != nil; w = w.next {
		n++
	}
	c.mu.Unlock()
	return n > 0 && r.left.Add(int32(-n)) == 0
}

// onFrame handles one message from the server.
func (c *Client) onFrame(frame []byte) {
	if wire.IsBatchFrame(frame) {
		// Borrowed like a singleton: the handlers hand readers owned values.
		b, err := wire.DecodeBatchBorrowed(frame)
		if err != nil {
			return
		}
		switch b.Kind {
		case wire.KindMultiReadResp:
			c.onAnswer(&b)
		case wire.KindResyncResp:
			c.onResyncResp(b)
		}
		return
	}
	// Borrowed decode: msg aliases frame, valid only for this handler.
	// Retention points clone — the cache copies key and value in, and
	// answerLocked clones before handing a value to a waiting reader
	// goroutine.
	msg, err := wire.DecodeBorrowed(frame)
	if err != nil {
		return // malformed server frame; drop
	}
	switch msg.Kind {
	case wire.KindReadResp, wire.KindReadFail:
		// A singleton answer is a one-entry view; a ReadFail has no entry
		// and names its key.
		var one [1]wire.Entry
		var key [1]string
		b := wire.Batch{Kind: msg.Kind, ID: msg.ID}
		if msg.Kind == wire.KindReadResp {
			one[0] = wire.Entry{Key: msg.Key, Value: msg.Value, Version: msg.Version, Allocate: msg.Allocate, Window: msg.Window}
			b.Entries = one[:]
		} else {
			key[0] = msg.Key
			b.Keys = key[:]
		}
		c.onAnswer(&b)
	case wire.KindWriteProp:
		c.onWriteProp(msg)
	case wire.KindDeleteReq:
		c.onDeleteReq(msg)
	case wire.KindPong:
		c.mu.Lock()
		f := c.onPong
		c.mu.Unlock()
		if f != nil {
			f(msg.Version)
		}
	case wire.KindBusy:
		c.onBusyFrame(msg)
	case wire.KindAttachResp:
		c.onAttachResp(msg)
	default:
		// ReadReq and Ping are client-to-server only; ignore.
	}
}

// onBusyFrame handles the server's overload signal: the session was
// refused at attach or shed. The handler (the reconnect supervisor) gets
// the retry-after hint so its backoff waits out the server's congestion
// instead of probing a known-busy server at dead-server cadence.
func (c *Client) onBusyFrame(msg wire.Message) {
	mBusyReceived.Inc()
	// msg.Key is borrowed transport memory; clone before it escapes.
	reason := strings.Clone(msg.Key)
	retry := time.Duration(msg.Version) * time.Millisecond
	obsTr.Record(obs.EvOverload, "", reason, int64(msg.Version), 0)
	c.mu.Lock()
	f := c.onBusy
	c.mu.Unlock()
	if f != nil {
		f(retry, reason)
	}
}

// Ping sends a keepalive probe carrying seq; the server echoes it as a
// Pong delivered to the pong handler. Liveness traffic: it is not metered
// as protocol cost.
func (c *Client) Ping(seq uint64) error {
	c.mu.Lock()
	offline := c.offline
	link := c.link
	c.mu.Unlock()
	if offline || link == nil {
		return ErrOffline
	}
	buf := encodePooled(wire.Message{Kind: wire.KindPing, Version: seq})
	err := link.Send(buf.B)
	wire.PutBuf(buf)
	if err != nil {
		c.suspect(link, err)
		return err
	}
	return nil
}

// SetPongHandler registers f to receive each Pong's sequence number. f
// runs on the transport's delivery goroutine and must not call back into
// the client while blocking it.
func (c *Client) SetPongHandler(f func(seq uint64)) {
	c.mu.Lock()
	c.onPong = f
	c.mu.Unlock()
}

// SetBusyHandler registers f to receive the server's Busy signals (attach
// refused, session shed) with their retry-after hint and reason. f runs
// on the transport's delivery goroutine and must not block it.
func (c *Client) SetBusyHandler(f func(retryAfter time.Duration, reason string)) {
	c.mu.Lock()
	c.onBusy = f
	c.mu.Unlock()
}

// SetLinkErrorHandler registers f to be told when traffic on the current
// link fails — the reconnect supervisor's cue that the link is suspect.
// Errors from links already replaced or cleared are not reported.
func (c *Client) SetLinkErrorHandler(f func(err error)) {
	c.mu.Lock()
	c.onLinkError = f
	c.mu.Unlock()
}

// suspect reports a link failure to the error handler, but only when the
// failing link is still the client's current one: a stale link's death
// must not restart recovery that already moved on.
func (c *Client) suspect(link transport.Link, err error) {
	c.mu.Lock()
	cur := c.link
	f := c.onLinkError
	c.mu.Unlock()
	if f != nil && link != nil && link == cur {
		f(err)
	}
}

// onAnswer is the client's one read handler: b, borrowed, answers read
// request b.ID — a ReadResp's one-entry view, a MultiReadResp, or a
// refusal with no entries (a ReadFail, or a relay's empty MultiReadResp)
// that fails every key still parked under the id. Each entry is answered
// by the one rule, answerLocked. A NotModified entry carries the value
// its hint named: at a relay the mirror's, if the mirror still holds that
// version, at an MC the live or archived copy. A joint answer settles its
// request: a relay's key it left parked — below its floor, or a version
// the mirror no longer holds — goes up again alone (gather), and a
// reader's key it left out fails. An answer to a request sent on an
// earlier link is ignored: its session is gone.
func (c *Client) onAnswer(b *wire.Batch) {
	var vb *wire.Buf
	for i := range b.Entries {
		e := &b.Entries[i]
		c.mu.Lock()
		if b.ID <= c.since {
			c.mu.Unlock()
			break
		}
		it, owned := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}, false
		if e.NotModified && c.relay == nil {
			if live, ok := c.cache.Peek(e.Key); ok && live.Version == e.Version {
				it = live
			} else if arch, ok := c.cache.Revalidated(e.Key); ok {
				it = arch
			}
			owned = true
		} else if e.NotModified {
			if vb == nil {
				vb = wire.GetBuf()
			}
			m, _ := c.relay.store.GetCopy(e.Key, vb.B[:0])
			vb.B, it.Value = m.Value, m.Value
			if m.Version != e.Version {
				c.mu.Unlock()
				continue
			}
		}
		c.answerLocked(it, owned, e.Allocate, e.Window, b.ID)
	}
	wire.PutBuf(vb)
	if b.Kind == wire.KindReadResp {
		return
	}
	c.mu.Lock()
	if b.ID <= c.since {
		c.mu.Unlock()
		return
	}
	if c.epoch == 0 {
		// A joint read can be the first frame that tells an attach-greeting-
		// deprived client which epoch it is talking to; adopt it. (A changed
		// epoch cannot arrive here — restarts kill links, and the fence path
		// is the resync answer's job.)
		c.epoch = b.Epoch
	}
	var left *readWaiter
	if b.Kind == wire.KindReadFail {
		left = c.unparkLocked(b.Keys[0], func(w *readWaiter) bool { return w.ticket == b.ID })
	} else if i, ok := c.findLocked(b.ID); ok {
		left = c.takeLocked(c.reqs[i].r, b.ID)
	}
	c.mu.Unlock()
	for w := left; w != nil; {
		next := w.next
		w.next = nil
		if len(b.Entries) > 0 && w.req.ss != nil {
			c.gather(w, false)
		} else {
			fail(w)
		}
		w = next
	}
}

// answerLocked applies an answer to request id for it.Key — its value
// borrowed unless owned — and completes every read of the key parked at
// or before that request whose floor it clears (every upstream serve
// respects the request's floor, so an answer below a read's floor is not
// its answer): the SC served the request after each of those was sent, so
// none gets a value older than its own request. A read parked later waits
// for an answer of its own, so a duplicated older answer completes
// nothing younger. The id decides the allocation alone (installLocked),
// whether or not the read that asked is still parked. The caller holds
// c.mu; answerLocked releases it.
func (c *Client) answerLocked(it db.Item, owned, allocate bool, win core.Window, id uint64) {
	got := c.unparkLocked(it.Key, func(w *readWaiter) bool { return w.ticket <= id && w.floor <= it.Version })
	relay, reader := false, false
	for w := got; w != nil; w = w.next {
		relay = relay || w.req.ss != nil
		reader = reader || w.req.ss == nil
	}
	if got != nil {
		c.noteFloorLocked(got.key, it.Version) // the reader's own key
	}
	// The value handed to the readers: the cache's new copy, lent, if this
	// answer installed one, else the answer's own if owned; a relay's key
	// mirrors the answer's own bytes instead.
	var copied []byte
	installed := false
	if allocate {
		copied, installed = c.installLocked(it, win, id, reader)
	}
	if copied == nil && owned {
		copied = it.Value
	}
	key, out, dwin := "", mobile.Stale, core.Window{}
	if relay && !installed {
		// A relay's key goes remote while still holding a copy only when
		// the cached version sat below the floor, so the propagation path
		// lost writes: the cache folds the answer in like a one-key resync.
		key, out, dwin = c.cache.Apply(it, true)
	}
	if out == mobile.Dropped {
		c.deallocate(key, dwin, "absorb", it.Version)
	} else {
		c.mu.Unlock()
	}
	for w := got; w != nil; {
		next := w.next // a completed reader may recycle w at once
		if w.req.ss != nil {
			// Synchronous completion on the delivery goroutine: the value
			// is borrowed, and the relay copies at every retention point.
			mFetchParent.Inc()
			c.relay.fetched(w, it)
		} else {
			// The reader consumes the result on another goroutine, after
			// this handler has returned and the frame buffer has been
			// reused: hand it an owned value — the cache's copy, or else a
			// clone — which is all it returns besides its own key and the
			// version. The unlinking above made this the only write w sees
			// before the reader recycles it.
			if copied == nil {
				copied = bytes.Clone(it.Value)
			}
			w.value, w.version = copied, it.Version
			w.req.done(true)
		}
		w = next
	}
}

// installLocked installs an allocating answer's copy if the request it
// answers, id, is newer than the key's mark. A DeleteReq sent after the
// request cancels the allocation, because the SC served the request
// first. A DeleteReq received from the SC revokes every allocation
// answered before it, and FIFO links deliver those first, so an older id
// arriving later is a duplicate. A held copy is never replaced, so no
// answer rolls the value or window back. An install is counted and
// traced and raises the key's floor. It returns whether it installed and,
// with lend, the cache's copy of the value, lent: only a reader that
// returns the value needs it, and a copy never lent is overwritten in
// place by the key's next write. The caller holds c.mu.
func (c *Client) installLocked(it db.Item, win core.Window, id uint64, lend bool) ([]byte, bool) {
	if id <= c.marks[it.Key] {
		return nil, false
	}
	// An SW allocation without a window means the server is buggy; the
	// cache assumes all reads, which the next requests wash out.
	in, ok := c.cache.Install(it, win, lend)
	if !ok {
		return nil, false
	}
	mAllocs.Inc()
	c.noteFloorLocked(in.Key, it.Version)
	// The tracer's ring retains the key: the cache's own, not the answer's.
	obsTr.Record(obs.EvAllocate, in.Key, "read-resp", int64(it.Version), 0)
	return in.Value, true
}

// onWriteProp applies a propagated write: update the cached copy, slide
// the window, and deallocate if writes now hold the majority. The window
// slides only when the version actually advances the cache — a
// duplicated or reordered propagation is inert, or it would count one
// write twice and deallocate too early. The whole step is one cache call:
// one lock, one map probe, and the value copied over the resident buffer.
func (c *Client) onWriteProp(msg wire.Message) {
	key, out, win := c.cache.Apply(db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version}, false)
	switch out {
	case mobile.Stale:
		return
	case mobile.NotHeld:
		// The SC still believes this MC is subscribed, so the deallocation
		// (our delete-request, or the allocation response it answers) was
		// lost in transit or is still on its way. Re-assert it so the SC
		// stops paying a data message per write; a duplicate delete-request
		// is ignored there. msg.Key is borrowed, and deallocate retains the
		// key it marks: the cache's own, or a clone for a key never held.
		if key == "" {
			key = strings.Clone(msg.Key)
		}
		c.mu.Lock()
		c.deallocate(key, win, "", 0)
		return
	}
	// The relay mirrors the write downward before any revocation: children
	// that keep their copies see the value. The key is the cache's own;
	// Value stays borrowed (retention points copy).
	c.notifyApply(db.Item{Key: key, Value: msg.Value, Version: msg.Version})
	if out == mobile.Dropped {
		// Deallocate: hand the window back to the SC. The delete-request
		// rides the write's connection: it is a control message but not a
		// new connection.
		c.mu.Lock()
		c.deallocate(key, win, "write-majority", msg.Version)
	}
}

// deallocate is the MC's one path for a DeleteReq: a write-majority drop,
// a NotHeld re-assert (reason ""), an absorbed read-through answer, a
// resync deallocation, DropCopy. It hands win back to the SC and draws
// the DeleteReq an id as key's mark: the SC serves every read requested
// before it first, so an allocation they carry is cancelled by it and
// must not be installed (installLocked). key is retained, so it must be
// owned: the cache's own whenever a copy was dropped (reason set), which
// is counted and cascades (notifyDrop). The caller holds
// c.mu, having decided the drop under it or on the link's delivery
// goroutine; deallocate sends under it — so no read draws an id between
// the mark and the send — and releases it. That cannot re-enter: the SC
// never answers a DeleteReq.
func (c *Client) deallocate(key string, win core.Window, reason string, version uint64) {
	c.seq++
	c.marks[key] = c.seq
	link := c.link
	err := c.sendOn(link, wire.Message{Kind: wire.KindDeleteReq, Key: key, Window: win})
	c.mu.Unlock()
	if err != nil {
		c.suspect(link, err)
	}
	if reason != "" {
		mDeallocs.Inc()
		obsTr.Record(obs.EvDeallocate, key, reason, int64(version), 0)
		c.notifyDrop(key)
	}
}

// onDeleteReq handles the SW1 optimization (and any server-initiated
// deallocation): drop the copy, and mark the key so that no duplicate of
// the answer that placed it installs again (installLocked).
func (c *Client) onDeleteReq(msg wire.Message) {
	c.mu.Lock()
	key, _, had := c.cache.Drop(msg.Key, true)
	if had {
		c.marks[key] = c.seq
	}
	c.mu.Unlock()
	if !had {
		return
	}
	mDeallocs.Inc()
	obsTr.Record(obs.EvDeallocate, key, "delete-req", 0, 0)
	c.notifyDrop(key)
}

// notifyApply mirrors it down a relay's subtree and hands it to the apply
// handler, if any.
func (c *Client) notifyApply(it db.Item) {
	if c.relay != nil {
		c.relay.parentApplied(it)
	}
	if apply := c.applyFn.Load(); apply != nil && *apply != nil {
		(*apply)(it)
	}
}

// notifyDrop revokes key's copies below a relay and tells the drop
// handler, if any, that key's copy is gone.
func (c *Client) notifyDrop(key string) {
	if c.relay != nil {
		c.relay.invalidate(key)
	}
	if drop := c.dropFn.Load(); drop != nil && *drop != nil {
		(*drop)(key)
	}
}

// sendOn sends a DeleteReq over an explicit link snapshot, so a
// concurrent Disconnect cannot race the nil check. The frame is encoded
// into a pooled buffer, released as soon as Send returns (links never
// retain). The caller reports a failed send to the recovery layer
// (suspect) once it holds no lock.
func (c *Client) sendOn(link transport.Link, msg wire.Message) error {
	if link == nil {
		return ErrOffline
	}
	buf := encodePooled(msg)
	defer wire.PutBuf(buf)
	c.meter.addControl(len(buf.B))
	return link.Send(buf.B)
}

// sendFrame sends a read request, encoded in buf, on link as one control
// message on a new connection, and recycles buf.
func (c *Client) sendFrame(link transport.Link, buf *wire.Buf) error {
	c.meter.addConnection()
	err := ErrOffline
	if link != nil {
		c.meter.addControl(len(buf.B))
		err = link.Send(buf.B)
	}
	wire.PutBuf(buf)
	return err
}
