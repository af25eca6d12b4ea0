package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/mobile"
	"mobirep/internal/obs"
	"mobirep/internal/sched"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Client is the mobile computer: it serves reads from its local cache when
// a copy is allocated and runs the MC side of the allocation protocol.
type Client struct {
	link  transport.Link
	cache *mobile.Cache
	mode  Mode
	meter *Meter

	mu           sync.Mutex
	items        map[string]*itemState
	pending      map[string]*readWaiter // per key, the oldest parked read; the rest chain behind it
	pendingBatch []chan wire.Batch
	// pendingFn holds continuation-style read waiters (ReadThrough): a
	// relay station's fetches, which must never park a goroutine on a
	// channel because they run on transport delivery goroutines.
	pendingFn map[string][]*fnWaiter
	offline   bool
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

	// Tree hooks (readthrough.go). applyFn/dropFn let a relay station
	// mirror parent-face state changes downward; fenceFn announces an
	// epoch fence so the station can invalidate its subtree. trackFloors
	// turns on per-key read floors: remote reads then carry the highest
	// version this client has observed, making reads monotone per key
	// even across relay staleness. All off by default — a plain client
	// stays wire-identical.
	applyFn     func(it db.Item)
	dropFn      func(key string)
	fenceFn     func()
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
	if err := mode.validate(); err != nil {
		return nil, err
	}
	c := &Client{
		link:      link,
		cache:     mobile.NewCache(),
		mode:      mode,
		meter:     newMeter(mcMirror),
		items:     make(map[string]*itemState),
		pending:   make(map[string]*readWaiter),
		pendingFn: make(map[string][]*fnWaiter),
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
	st := c.state(key)
	if st.hasCopy {
		it, ok := c.cache.Get(key)
		if ok {
			// Local read: the MC is in charge; slide the window.
			if st.kind == ModeSW {
				st.window.Push(sched.Read)
			}
			c.noteFloorLocked(key, it.Version)
			c.mu.Unlock()
			mReadLocal.Inc()
			return it, nil
		}
		// Cache and allocation state disagree; fall through to remote and
		// repair below. (Can only happen if Drop raced with Read.)
		st.hasCopy = false
	} else {
		// Record the miss in the cache statistics.
		c.cache.Get(key)
	}
	var floor uint64
	if c.trackFloors {
		floor = c.floors[key]
	}
	w := waiterPool.Get().(*readWaiter)
	w.key, w.floor = key, floor
	c.parkLocked(w)
	link := c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendControlOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		w.done(c.cancelPending(w))
		mReadOffline.Inc()
		// A link that fails mid-send is an offline condition to the
		// caller (the suspect hook above has already told the recovery
		// layer); the transport detail rides along for diagnostics.
		return db.Item{}, fmt.Errorf("%w: %v", ErrOffline, err)
	}
	var timeout <-chan time.Time
	if c.Timeout > 0 {
		timeout = w.arm(c.Timeout)
	}
	select {
	case resp, ok := <-w.ch:
		// Closed by Disconnect or Suspend: the channel is spent and w is
		// dropped. Else this was the one send w.ch will ever see.
		w.done(ok)
		if !ok {
			mReadOffline.Inc()
			return db.Item{}, ErrOffline
		}
		mReadRemote.Inc()
		return db.Item{Key: key, Value: resp.value, Version: resp.version}, nil
	case <-timeout:
		w.armed = false // the tick is consumed
		w.done(c.cancelPending(w))
		mReadTimeout.Inc()
		// A silent link is as suspect as a failing one.
		c.suspect(link, ErrTimeout)
		return db.Item{}, ErrTimeout
	case <-ctx.Done():
		w.done(c.cancelPending(w))
		mReadCanceled.Inc()
		return db.Item{}, ctx.Err()
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

// state returns (creating if needed) the client's state for key. The
// caller must hold c.mu.
func (c *Client) state(key string) *itemState {
	st, ok := c.items[key]
	if !ok {
		st = newItemState(c.mode)
		// Inserting a map key retains its bytes, and key may alias a
		// borrowed frame (wire.DecodeBorrowed); clone so the client never
		// keeps transport memory alive.
		c.items[strings.Clone(key)] = st
	}
	return st
}

// parkLocked queues w behind the reads already waiting on its key. The
// caller holds c.mu.
func (c *Client) parkLocked(w *readWaiter) {
	head := c.pending[w.key]
	if head == nil {
		c.pending[w.key] = w
		return
	}
	for head.next != nil {
		head = head.next
	}
	head.next = w
}

// cancelPending removes w from the waiters of its key and reports whether
// it was still there. True means no response and no Disconnect got to w
// first, so nothing can still send on or close its channel.
func (c *Client) cancelPending(w *readWaiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.pending[w.key]
	if head == w {
		c.popWaiterLocked(w)
		return true
	}
	for ; head != nil; head = head.next {
		if head.next == w {
			head.next = w.next
			return true
		}
	}
	return false
}

// popWaiterLocked unlinks head, the oldest waiter of its key. The map is
// only ever indexed by a waiter's own key, never by a response's: assigning
// under an existing string key replaces the stored key too, and a borrowed
// msg.Key would plant transport bytes in the map. The caller holds c.mu.
func (c *Client) popWaiterLocked(head *readWaiter) {
	if head.next == nil {
		// Popping the entry keeps the map from accumulating one empty
		// slot per key ever read.
		delete(c.pending, head.key)
	} else {
		c.pending[head.next.key] = head.next
	}
}

// onFrame handles one message from the server.
func (c *Client) onFrame(frame []byte) {
	if wire.IsBatchFrame(frame) {
		b, err := wire.DecodeBatch(frame)
		if err != nil {
			return
		}
		c.onBatch(b)
		return
	}
	// Borrowed decode: msg aliases frame, valid only for this handler.
	// Retention points clone — the cache copies bytes in, state() clones
	// map keys, and onReadResp clones before handing a message to a
	// waiting reader goroutine.
	msg, err := wire.DecodeBorrowed(frame)
	if err != nil {
		return // malformed server frame; drop
	}
	switch msg.Kind {
	case wire.KindReadResp:
		c.onReadResp(msg)
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

// onReadResp completes a pending remote read and applies an allocation.
// Allocation applies only while no copy is held: a duplicated allocating
// response must not reinstall a possibly older value or roll the window
// back to the bits that rode the original handoff. A response below the
// head waiter's floor is fully inert — every upstream serve respects the
// request's floor, so such a frame can only be a stale chaos duplicate,
// and completing a floored read (or installing a copy) with it would
// hand back data older than the reader has already seen.
func (c *Client) onReadResp(msg wire.Message) {
	c.mu.Lock()
	if msg.Version < c.headFloorLocked(msg.Key) {
		// For fn waiters the head may be a stranded continuation from a
		// request chaos ate; the response is inert only if it satisfies
		// none of them.
		inert := true
		if c.pending[msg.Key] == nil {
			for _, fw := range c.pendingFn[msg.Key] {
				if fw.floor <= msg.Version {
					inert = false
					break
				}
			}
		}
		if inert {
			c.mu.Unlock()
			return
		}
	}
	if msg.Allocate && !c.state(msg.Key).hasCopy {
		st := c.state(msg.Key)
		st.hasCopy = true
		mAllocs.Inc()
		// The tracer's ring buffer retains the key; msg.Key is borrowed.
		obsTr.Record(obs.EvAllocate, strings.Clone(msg.Key), "read-resp", int64(msg.Version), 0)
		if st.kind == ModeSW {
			if msg.Window.Size() == st.window.Size() {
				st.window = msg.Window
			} else {
				// ST2-style allocation carries no window; for SW modes a
				// missing window means the server is buggy — recover by
				// assuming all-reads, which the next requests will wash
				// out.
				st.window.Fill(sched.Read)
			}
		}
		c.cache.Install(db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version})
	}
	var w *readWaiter
	var fws []*fnWaiter
	var dealloc *wire.Message
	var dropped string
	if w = c.pending[msg.Key]; w != nil {
		c.popWaiterLocked(w)
		c.noteFloorLocked(msg.Key, msg.Version)
	} else if fns := c.pendingFn[msg.Key]; len(fns) > 0 {
		// One response satisfies EVERY continuation whose floor it
		// clears, not just the head. A request chaos ate leaves its
		// waiter stranded; if each answer resolved only the oldest, every
		// retry would complete its predecessor and strand itself — the
		// queue stays one resolution behind forever.
		var keep []*fnWaiter
		for _, f := range fns {
			if f.floor <= msg.Version {
				fws = append(fws, f)
			} else {
				keep = append(keep, f)
			}
		}
		if len(keep) == 0 {
			delete(c.pendingFn, msg.Key)
		} else {
			// Clone before assigning: see the pending-map note above.
			c.pendingFn[strings.Clone(msg.Key)] = keep
		}
		c.noteFloorLocked(msg.Key, msg.Version)
		// A ReadThrough goes remote while still holding a copy only when
		// the cached version sat below the floor; fold the answer in like
		// a one-key resync.
		dealloc, dropped = c.absorbLocked(msg)
	}
	drop := c.dropFn
	c.mu.Unlock()
	if w != nil {
		// The reader consumes the result on another goroutine, after this
		// handler has returned and the frame buffer has been reused: hand
		// it an owning copy of the value — all it returns besides its own
		// key and the version. The pop above made this the only send w.ch
		// sees before the reader recycles w.
		w.ch <- readResult{value: bytes.Clone(msg.Value), version: msg.Version}
	}
	if dealloc != nil {
		_ = c.sendControl(*dealloc)
	}
	for _, f := range fws {
		// Synchronous completion on the delivery goroutine: msg is
		// borrowed, so the continuations must finish with it before
		// returning (relay stations copy at every retention point).
		f.fn(msg, true)
	}
	if dropped != "" && drop != nil {
		drop(dropped)
	}
}

// onWriteProp applies a propagated write: update the cached copy, slide
// the window, and deallocate (sending the delete-request with the window)
// if writes now hold the majority. The window slides only when the version
// actually advances the cache — a duplicated or reordered propagation is
// inert, or it would count one write twice and deallocate too early.
func (c *Client) onWriteProp(msg wire.Message) {
	c.mu.Lock()
	st := c.state(msg.Key)
	if !st.hasCopy {
		// The SC still believes this MC is subscribed, so the deallocation
		// (our delete-request, or the allocation response it answers) was
		// lost in transit. Re-assert it so the SC stops paying a data
		// message per write; a duplicate delete-request is ignored there.
		c.cache.Update(db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version})
		out := wire.Message{Kind: wire.KindDeleteReq, Key: msg.Key}
		if st.kind == ModeSW {
			out.Window = st.window
		}
		c.mu.Unlock()
		_ = c.sendControl(out)
		return
	}
	fresh := c.cache.Update(db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version})
	var out *wire.Message
	if fresh && st.kind == ModeSW {
		st.window.Push(sched.Write)
		if !st.window.ReadMajority() {
			// Deallocate: hand the window back to the SC.
			st.hasCopy = false
			c.cache.Drop(msg.Key)
			mDeallocs.Inc()
			obsTr.Record(obs.EvDeallocate, strings.Clone(msg.Key), "write-majority", int64(msg.Version), 0)
			out = &wire.Message{
				Kind: wire.KindDeleteReq, Key: msg.Key, Window: st.window,
			}
		}
	}
	apply := c.applyFn
	drop := c.dropFn
	c.mu.Unlock()
	var key string
	if (fresh && apply != nil) || (out != nil && drop != nil) {
		key = strings.Clone(msg.Key) // the handlers may retain the key
	}
	if fresh && apply != nil {
		// The relay mirrors the write downward before any revocation:
		// children that keep their copies see the value; Value stays
		// borrowed (the handler copies at retention points).
		apply(db.Item{Key: key, Value: msg.Value, Version: msg.Version})
	}
	if out != nil {
		// The delete-request rides the write's connection: it is a
		// control message but not a new connection.
		_ = c.sendControl(*out)
		if drop != nil {
			drop(key)
		}
	}
}

// onDeleteReq handles the SW1 optimization (and any server-initiated
// deallocation): drop the copy.
func (c *Client) onDeleteReq(msg wire.Message) {
	c.mu.Lock()
	st := c.state(msg.Key)
	had := st.hasCopy
	st.hasCopy = false
	if st.kind == ModeSW {
		st.window.Fill(sched.Write)
	}
	c.cache.Drop(msg.Key)
	drop := c.dropFn
	c.mu.Unlock()
	if had {
		mDeallocs.Inc()
		key := strings.Clone(msg.Key)
		obsTr.Record(obs.EvDeallocate, key, "delete-req", 0, 0)
		if drop != nil {
			drop(key)
		}
	}
}

func (c *Client) sendControl(msg wire.Message) error {
	c.mu.Lock()
	link := c.link
	c.mu.Unlock()
	return c.sendControlOn(link, msg)
}

// sendControlOn sends over an explicit link snapshot, so a concurrent
// Disconnect cannot race the nil check. The frame is encoded into a
// pooled buffer, released as soon as Send returns (links never retain).
func (c *Client) sendControlOn(link transport.Link, msg wire.Message) error {
	if link == nil {
		return ErrOffline
	}
	buf := wire.GetBuf()
	b, err := wire.AppendEncode(buf.B[:0], msg)
	if err != nil {
		wire.PutBuf(buf)
		// Unlike the server's protocol-generated messages, this path can
		// carry a caller-provided key (ReadReq); reject, don't panic.
		return fmt.Errorf("replica: encode %v: %w", msg.Kind, err)
	}
	buf.B = b
	c.meter.addControl(len(b))
	err = link.Send(b)
	wire.PutBuf(buf)
	if err != nil {
		c.suspect(link, err)
		return err
	}
	return nil
}
