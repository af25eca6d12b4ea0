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
// lock alone; c.mu guards the link, the parked reads, the floors and the
// epoch.
type Client struct {
	link  transport.Link
	cache *mobile.Cache
	meter *Meter

	mu           sync.Mutex
	pending      map[string]parked // per key, the singleton reads in flight
	pendingBatch []batchWaiter     // parked joint reads, oldest first
	parks        uint64            // tickets drawn by parkLocked
	offline      bool
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
	// mirror parent-face state changes downward, and fetchFn completes its
	// read-throughs — read without c.mu, so applying a write takes no lock
	// but the cache's (nil until set, or pointing at a nil func once
	// cleared); fenceFn announces an epoch fence so the station can
	// invalidate its subtree. trackFloors turns on per-key read floors:
	// remote reads then carry the highest version this client has
	// observed, making reads monotone per key even across relay
	// staleness. All off by default — a plain client stays wire-identical.
	applyFn     atomic.Pointer[func(it db.Item)]
	dropFn      atomic.Pointer[func(key string)]
	fetchFn     atomic.Pointer[func(f *Fetch, it db.Item, ok bool)]
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
		pending: make(map[string]parked),
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
	return c.pending[key].head != nil
}

// parked is one key's singleton reads in flight: the parked readers — a
// goroutine in ReadContext or a relay's Fetch from ReadThrough — oldest
// first, and the key's requests still unanswered (a reader that gave up
// leaves its request behind). Links are FIFO and every request is
// answered — by a ReadResp, or by a ReadFail from a relay that could not
// fetch — so an answer is the oldest unanswered request's; dis of those
// oldest ones were disowned by a DeleteReq sent after them (deallocate).
// key is the entry's own, owned copy of the map key: an update re-assigns
// under it, never under a borrowed msg.Key, because assigning under an
// existing string key replaces the stored key too.
type parked struct {
	key      string
	head     *readWaiter
	out, dis uint32
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
	w := waiterPool.Get().(*readWaiter)
	w.key, w.floor = key, floor
	c.parkLocked(w)
	link := c.link
	c.mu.Unlock()

	c.meter.addConnection()
	if err := c.sendOn(link, wire.Message{Kind: wire.KindReadReq, Key: key, Version: floor}); err != nil {
		c.suspect(link, err)
		w.done(c.cancelPending(key, w, w.ticket, link))
		mReadOffline.Inc()
		// A link that fails mid-send is an offline condition to the
		// caller (the suspect hook has already told the recovery layer);
		// the transport detail rides along for diagnostics.
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
		w.done(c.cancelPending(key, w, w.ticket, nil))
		mReadTimeout.Inc()
		// A silent link is as suspect as a failing one.
		c.suspect(link, ErrTimeout)
		return db.Item{}, ErrTimeout
	case <-ctx.Done():
		w.done(c.cancelPending(key, w, w.ticket, nil))
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

// parkLocked queues w behind the reads already waiting on its key, counts
// its request and draws its ticket. The caller holds c.mu.
func (c *Client) parkLocked(w *readWaiter) {
	c.parks++
	w.ticket = c.parks
	p, ok := c.pending[w.key]
	if !ok {
		p.key = w.key
	}
	q := &p.head
	for *q != nil {
		q = &(*q).next
	}
	*q = w
	p.out++
	c.pending[p.key] = p
}

// cancelPending removes w, parked on key with ticket, from the readers of
// key and reports whether it was still there. True means no response and
// no Disconnect got to w first, so nothing can still complete it. A
// request that left stays counted: its answer may still come. One whose
// send on unsent failed never left, and while unsent is still the
// client's link its count is taken back. The ticket is read only from a
// waiter found parked: a Fetch completed meanwhile may be parked again
// for a later read, under a later ticket.
func (c *Client) cancelPending(key string, w *readWaiter, ticket uint64, unsent transport.Link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pending[key] // the zero entry, with no key, when reset
	if unsent != nil && unsent == c.link {
		p.out = max(p.out, 1) - 1
		p.dis = min(p.dis, p.out)
	}
	found := false
	for q := &p.head; *q != nil; q = &(*q).next {
		if *q == w && w.ticket == ticket {
			*q, found = w.next, true
			break
		}
	}
	c.putLocked(p)
	return found
}

// putLocked stores p back, or deletes its entry once no read is parked
// and no request unanswered. The caller holds c.mu.
func (c *Client) putLocked(p parked) {
	if p.head == nil && p.out == 0 {
		delete(c.pending, p.key)
	} else {
		c.pending[p.key] = p
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
	// Retention points clone — the cache copies key and value in, and
	// onReadResp clones before handing a message to a waiting reader
	// goroutine.
	msg, err := wire.DecodeBorrowed(frame)
	if err != nil {
		return // malformed server frame; drop
	}
	switch msg.Kind {
	case wire.KindReadResp:
		c.onReadResp(msg)
	case wire.KindReadFail:
		c.onReadFail(msg.Key)
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

// onReadResp takes the answer to the key's oldest unanswered request and
// completes every parked read of the key whose floor it clears (every
// upstream serve respects the request's floor, so an answer below a
// read's floor is not its answer). Its allocation applies only when a
// request was unanswered — not for a chaos duplicate — and a deallocation
// sent after that request did not disown it (deallocate), and only while
// no copy is held: a duplicated allocating response must not reinstall a
// possibly older value or roll the window back to the bits that rode the
// original handoff.
func (c *Client) onReadResp(msg wire.Message) {
	c.mu.Lock()
	p, ok := c.pending[msg.Key]
	if !ok {
		c.mu.Unlock()
		return
	}
	own := p.out > 0 && p.dis == 0
	p.out, p.dis = max(p.out, 1)-1, max(p.dis, 1)-1
	var got, tail *readWaiter // the completed reads, oldest first
	relay := false
	for q := &p.head; *q != nil; {
		w := *q
		if w.floor > msg.Version {
			q = &w.next
			continue
		}
		*q, w.next = w.next, nil
		if got == nil {
			got = w
		} else {
			tail.next = w
		}
		tail = w
		relay = relay || w.fetch != nil
	}
	c.putLocked(p)
	c.noteFloorLocked(p.key, msg.Version)
	it := db.Item{Key: msg.Key, Value: msg.Value, Version: msg.Version}
	var copied []byte // the cache's new copy, lent, if this answer installed one
	if msg.Allocate && own {
		// An SW allocation without a window means the server is buggy; the
		// cache assumes all reads, which the next requests wash out.
		if in, ok := c.cache.Install(it, msg.Window); ok {
			copied = in.Value
			mAllocs.Inc()
			// The tracer's ring retains the key: the cache's own, not msg's.
			obsTr.Record(obs.EvAllocate, in.Key, "read-resp", int64(msg.Version), 0)
		}
	}
	key, out, win := "", mobile.Stale, core.Window{}
	if relay && copied == nil {
		// A ReadThrough goes remote while still holding a copy only when
		// the cached version sat below the floor, so the propagation path
		// lost writes: the cache folds the answer in like a one-key resync.
		key, out, win = c.cache.Apply(it, true)
	}
	if out == mobile.Dropped {
		c.deallocate(key, win, "absorb", msg.Version)
	} else {
		c.mu.Unlock()
	}
	for w := got; w != nil; {
		next := w.next // a completed reader may recycle w at once
		if w.fetch != nil {
			// Synchronous completion on the delivery goroutine: msg is
			// borrowed, so the handler must finish with it before
			// returning (relay stations copy at every retention point).
			c.fetched(w.fetch, db.Item{Key: w.key, Value: msg.Value, Version: msg.Version}, true)
		} else {
			// The reader consumes the result on another goroutine, after
			// this handler has returned and the frame buffer has been
			// reused: hand it an owned value — the cache's copy, or else a
			// clone — which is all it returns besides its own key and the
			// version. The unlinking above made this the only send w.ch
			// sees before the reader recycles w.
			if copied == nil {
				copied = bytes.Clone(msg.Value)
			}
			w.ch <- readResult{value: copied, version: msg.Version}
		}
		w = next
	}
}

// onReadFail takes a relay's refusal as the answer to the key's oldest
// unanswered request. Once none is left unanswered, nothing can complete
// the reads still parked: they fail at once, and a relay's Fetch passes
// the refusal on down the tree.
func (c *Client) onReadFail(key string) {
	c.mu.Lock()
	p := c.pending[key]
	p.out, p.dis = max(p.out, 1)-1, max(p.dis, 1)-1
	var stranded *readWaiter
	if p.out == 0 {
		stranded, p.head = p.head, nil
	}
	c.putLocked(p)
	c.mu.Unlock()
	c.failReads(stranded)
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
		// is ignored there. msg.Key is borrowed: deallocate retains no key
		// when no copy was dropped.
		c.mu.Lock()
		c.deallocate(msg.Key, win, "", 0)
		return
	}
	// The relay mirrors the write downward before any revocation: children
	// that keep their copies see the value. The key is the cache's own;
	// Value stays borrowed (the handler copies at retention points).
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
// resync deallocation, DropCopy. It hands win back to the SC and disowns
// every read of key requested before it: the SC serves those reads before
// it takes this DeleteReq, so an allocation they carry is cancelled by it
// and must not be installed. The caller holds c.mu, having decided the
// drop under it or on the link's delivery goroutine; deallocate sends
// under it — so no read parks between the disowning and the send — and
// releases it. That cannot re-enter: the SC never answers a DeleteReq.
// A dropped copy (reason set) is counted and cascades through the drop
// handler; key must then be the cache's own.
func (c *Client) deallocate(key string, win core.Window, reason string, version uint64) {
	if p, ok := c.pending[key]; ok {
		p.dis = p.out
		c.pending[p.key] = p
	}
	for i := range c.pendingBatch {
		c.pendingBatch[i].disown(key)
	}
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
// deallocation): drop the copy.
func (c *Client) onDeleteReq(msg wire.Message) {
	key, _, had := c.cache.Drop(msg.Key, true)
	if !had {
		return
	}
	mDeallocs.Inc()
	obsTr.Record(obs.EvDeallocate, key, "delete-req", 0, 0)
	c.notifyDrop(key)
}

// notifyApply hands it to the apply handler, if any.
func (c *Client) notifyApply(it db.Item) {
	if apply := c.applyFn.Load(); apply != nil && *apply != nil {
		(*apply)(it)
	}
}

// notifyDrop tells the drop handler, if any, that key's copy is gone.
func (c *Client) notifyDrop(key string) {
	if drop := c.dropFn.Load(); drop != nil && *drop != nil {
		(*drop)(key)
	}
}

// sendOn sends over an explicit link snapshot, so a concurrent
// Disconnect cannot race the nil check. The frame is encoded into a
// pooled buffer, released as soon as Send returns (links never retain).
// The caller reports a failed send to the recovery layer (suspect) once
// it holds no lock.
func (c *Client) sendOn(link transport.Link, msg wire.Message) error {
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
	return err
}
