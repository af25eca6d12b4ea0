package replica

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/wire"
)

// Joint reads (section 7.2): "multiple data items can be remotely read in
// one connection". ReadMany serves every cached key locally and fetches
// all missing keys with a single control request answered by a single
// data response, updating each key's window and allocation exactly as a
// per-key read would — only the message count changes. The experiments
// quantify the saving on correlated access patterns.
//
// Revalidation rides for free: the request carries the version of any
// stale archived value the client still holds (dropped copies move to the
// cache's archive), and the server answers NotModified — no payload —
// when the version is current. After a deallocation or a reconnect, the
// unchanged majority of a watch list costs version-check bytes instead of
// full payloads.

// ReadMany performs a joint read at the mobile computer. The returned
// items are in the order of keys. Duplicate keys are served consistently
// (the same item for each occurrence). It is ReadManyContext with no
// cancellation.
func (c *Client) ReadMany(keys []string) ([]db.Item, error) {
	return c.ReadManyContext(context.Background(), keys)
}

// ReadManyContext is ReadMany with a per-request deadline, mirroring
// ReadContext: the remote leg gives up with ctx.Err() when the context
// ends, on top of the client-wide Timeout.
func (c *Client) ReadManyContext(ctx context.Context, keys []string) ([]db.Item, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]db.Item, len(keys))

	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		return nil, ErrOffline
	}
	var missing []string
	var hints []uint64
	missingIdx := make(map[string][]int)
	for i, key := range keys {
		if it, ok := c.cache.Get(key, 0); ok {
			c.noteFloorLocked(it.Key, it.Version)
			out[i] = it
			continue
		}
		if len(missingIdx[key]) == 0 {
			missing = append(missing, key)
			hint := uint64(0)
			if arch, ok := c.cache.Archived(key); ok {
				hint = arch.Version
			}
			hints = append(hints, hint)
		}
		missingIdx[key] = append(missingIdx[key], i)
	}
	if len(missing) == 0 {
		c.mu.Unlock()
		return out, nil
	}
	ch := make(chan wire.Batch, 1)
	c.pendingBatch = append(c.pendingBatch, batchWaiter{keys: missing, ch: ch})
	link := c.link
	c.mu.Unlock()

	// One connection, one control message for the whole batch.
	c.meter.addConnection()
	buf := wire.GetBuf()
	frame, err := wire.AppendEncodeBatch(buf.B[:0], wire.Batch{Kind: wire.KindMultiReadReq, Keys: missing, Versions: hints})
	if err != nil {
		wire.PutBuf(buf)
		c.cancelPendingBatch(ch)
		return nil, fmt.Errorf("replica: encode batch: %w", err)
	}
	buf.B = frame
	c.meter.addControl(len(frame))
	if link == nil {
		wire.PutBuf(buf)
		c.cancelPendingBatch(ch)
		return nil, ErrOffline
	}
	err = link.Send(frame)
	wire.PutBuf(buf)
	if err != nil {
		c.cancelPendingBatch(ch)
		c.suspect(link, err)
		// As in ReadContext: a failed send is an offline condition.
		return nil, fmt.Errorf("%w: %v", ErrOffline, err)
	}

	var resp wire.Batch
	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return nil, ErrOffline
		}
		resp = r
	case <-timeout:
		c.cancelPendingBatch(ch)
		c.suspect(link, ErrTimeout)
		return nil, ErrTimeout
	case <-ctx.Done():
		c.cancelPendingBatch(ch)
		return nil, ctx.Err()
	}
	for _, e := range resp.Entries {
		it := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}
		if e.NotModified {
			// The archived value is confirmed current. If the entry also
			// allocated, onBatch has already promoted it into the live
			// cache (clearing the archive), so look there first.
			if live, ok := c.cache.Peek(e.Key); ok && live.Version == e.Version {
				it = live
			} else if arch, ok := c.cache.Revalidated(e.Key); ok {
				it = arch
			}
		}
		for _, i := range missingIdx[e.Key] {
			out[i] = it
		}
	}
	return out, nil
}

// batchWaiter is a parked joint read: the keys its request asked the
// server for, in request order, where its answer goes, and the indexes of
// the keys a deallocation disowned.
type batchWaiter struct {
	keys     []string
	ch       chan wire.Batch
	disowned []int
}

// disown marks key, if w asked for it, as disowned (see deallocate).
func (w *batchWaiter) disown(key string) {
	for i, k := range w.keys {
		if k == key {
			w.disowned = append(w.disowned, i)
		}
	}
}

// answers reports whether a MultiReadResp's entries answer w's request:
// the server answers one entry per requested key, in order.
func (w batchWaiter) answers(entries []wire.Entry) bool {
	if len(entries) != len(w.keys) {
		return false
	}
	for i, e := range entries {
		if e.Key != w.keys[i] {
			return false
		}
	}
	return true
}

func (c *Client) cancelPendingBatch(ch chan wire.Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.pendingBatch {
		if w.ch == ch {
			c.pendingBatch = append(c.pendingBatch[:i], c.pendingBatch[i+1:]...)
			return
		}
	}
}

// onBatch handles server-to-client batch messages. For a MultiReadResp:
// wake the oldest joint read the response answers and install the
// allocations it asked for, except on keys a deallocation disowned. A
// late answer to a read that already gave up matches no waiter, or one
// that asked for the same keys, and so never completes a read with
// another read's items; matching none, it installs nothing.
func (c *Client) onBatch(b wire.Batch) {
	if b.Kind == wire.KindResyncResp {
		c.onResyncResp(b)
		return
	}
	if b.Kind != wire.KindMultiReadResp {
		return
	}
	c.mu.Lock()
	if c.epoch == 0 && b.Epoch != 0 {
		// A joint read can be the first frame that tells an attach-greeting-
		// deprived client which epoch it is talking to; adopt it. (A changed
		// epoch cannot arrive here — restarts kill links, and the fence path
		// is the resync answer's job.)
		c.epoch = b.Epoch
	}
	for _, e := range b.Entries {
		// Joint reads record floors (they raise what singleton reads must
		// honor) but are not floor-gated themselves.
		c.noteFloorLocked(e.Key, e.Version)
	}
	var ch chan wire.Batch
	for i, w := range c.pendingBatch {
		if !w.answers(b.Entries) {
			continue
		}
		ch = w.ch
		c.pendingBatch = append(c.pendingBatch[:i], c.pendingBatch[i+1:]...)
		for ei, e := range b.Entries {
			if !e.Allocate || slices.Contains(w.disowned, ei) {
				continue
			}
			item := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}
			if e.NotModified {
				if arch, ok := c.cache.Revalidated(e.Key); ok {
					item = arch
				}
			}
			c.cache.Install(item, e.Window)
		}
		break
	}
	c.mu.Unlock()
	if ch != nil {
		ch <- b
	}
}

// onBatch handles client-to-server batch messages. For a MultiReadReq:
// every key gets the same treatment as a singleton read request, but the
// whole answer rides one data message. On a relay the keys are freshened
// through the origin first (see fetchAll); the answer is built only once
// every key has resolved, so it is still one frame.
func (ss *Session) onBatch(b wire.Batch) {
	if b.Kind == wire.KindResyncReq {
		ss.onResyncReq(b)
		return
	}
	if b.Kind != wire.KindMultiReadReq {
		return
	}
	ss.fetchAll(b)
}

// fetchBatch is a batch request waiting on its relay fetches: one pooled
// record the keys' Fetch records count down.
type fetchBatch struct {
	b      wire.Batch
	left   atomic.Int64
	failed atomic.Bool
}

var batchPool = sync.Pool{New: func() any { return new(fetchBatch) }}

// fetchAll answers a batch request once every key is ready to be served:
// at once on a plain server, after every origin fetch has completed on a
// relay. Any failed fetch drops the whole request (to the client, a lost
// frame). The batch's memory is owned (wire.DecodeBatch copies), so its
// keys are the Fetch records' own. The version hints double as fetch
// floors: the client has seen the hinted version, so the origin must not
// answer below it. Once the last fetch is started the batch may already
// be answered, so the loop reads nothing from fb.
func (ss *Session) fetchAll(b wire.Batch) {
	o := ss.srv.origin.Load()
	if o == nil || len(b.Keys) == 0 {
		ss.finishBatch(b)
		return
	}
	fb := batchPool.Get().(*fetchBatch)
	fb.b = b
	fb.left.Store(int64(len(b.Keys)))
	for i, key := range b.Keys {
		(*o)(newFetch(ss, key, hint(b, i), fb))
	}
}

// done counts one key's fetch; the last one answers the batch, unless any
// failed, and recycles fb.
func (fb *fetchBatch) done(ss *Session, ok bool) {
	if !ok {
		fb.failed.Store(true)
	}
	if fb.left.Add(-1) != 0 {
		return
	}
	b, failed := fb.b, fb.failed.Load()
	fb.b = wire.Batch{}
	fb.failed.Store(false)
	batchPool.Put(fb)
	if !failed {
		ss.finishBatch(b)
	}
}

// finishBatch answers a batch request whose keys are ready.
func (ss *Session) finishBatch(b wire.Batch) {
	if b.Kind == wire.KindResyncReq {
		ss.finishResync(b)
	} else {
		ss.finishMultiRead(b)
	}
}

// serveAll builds the answer to a batch request under the shard token,
// which the caller holds: it copies every key's value out of the store
// into one pooled buffer, lets entry turn each item into the key's entry
// (deciding allocation on the way), and returns the encoded answer in a
// pooled buffer.
func (ss *Session) serveAll(b wire.Batch, resp wire.Batch, entry func(ki int, it db.Item, st *itemState) wire.Entry) *wire.Buf {
	vb := wire.GetBuf()
	for ki, key := range b.Keys {
		n := len(vb.B)
		it, _ := ss.srv.store.GetCopy(key, vb.B)
		vb.B = it.Value
		it.Value = vb.B[n:]
		resp.Entries = append(resp.Entries, entry(ki, it, ss.state(key)))
	}
	buf := wire.GetBuf()
	frame, err := wire.AppendEncodeBatch(buf.B[:0], resp)
	if err != nil {
		panic(fmt.Sprintf("replica: encode batch response: %v", err))
	}
	buf.B = frame
	wire.PutBuf(vb)
	return buf
}

// hint returns the version hint the batch carried for its ki-th key, 0
// when none.
func hint(b wire.Batch, ki int) uint64 {
	if ki < len(b.Versions) {
		return b.Versions[ki]
	}
	return 0
}

// finishMultiRead answers a MultiReadReq: each key is served and decides
// allocation exactly as a singleton read would (allocOnRead).
func (ss *Session) finishMultiRead(b wire.Batch) {
	ss.shard.enter()
	if ss.detached {
		ss.shard.exit()
		return
	}
	resp := wire.Batch{Kind: wire.KindMultiReadResp, Epoch: ss.srv.store.Epoch()}
	ss.send(ss.serveAll(b, resp, func(ki int, it db.Item, st *itemState) wire.Entry {
		e := wire.Entry{Key: b.Keys[ki], Value: it.Value, Version: it.Version}
		if h := hint(b, ki); h != 0 && h == it.Version {
			// Version hint matches: skip the payload.
			e.NotModified, e.Value = true, nil
		}
		if ss.allocOnRead(e.Key, st) {
			e.Allocate, e.Window = true, st.window
		}
		return e
	}), reply)
}

// onResyncReq re-admits a warm client after a link blip: re-assert every
// declared subscription and answer with one data message that
// revalidates current copies (NotModified when the version stamp still
// matches, payload omitted) and re-ships only the keys that changed
// while the client was away. While the MC holds a copy it is in charge
// of the window, so the SC records only the subscription bit; if the
// resync answer makes the MC deallocate, its delete-request hands the
// window back as usual. A duplicated request (chaos) re-asserts
// idempotently; the duplicated answer is version-guarded at the client.
func (ss *Session) onResyncReq(b wire.Batch) {
	epoch := ss.srv.store.Epoch()
	if epoch != 0 && b.Epoch != 0 && b.Epoch != epoch {
		// The declaration was built under a dead epoch: the client's warm
		// state predates this incarnation, so re-asserting its subscriptions
		// would resurrect allocation bits the restart wiped. Answer with a
		// bare fence — the new epoch, no entries — and let the client
		// reattach cold. (A hint of 0 means the client never learned an
		// epoch; its copies were placed by some live incarnation and the
		// version-guarded warm path below handles them.)
		b.Keys, b.Versions = nil, nil
	}
	ss.fetchAll(b)
}

// finishResync answers a ResyncReq. On a relay the allocation gate
// decides per key whether the declared copy may stand: a key the relay
// could not secure upstream is answered normally but then revoked with a
// DeleteReq posted behind the answer, so the child drops a copy that
// would sit outside the root-to-leaf placement path.
func (ss *Session) finishResync(b wire.Batch) {
	ss.shard.enter()
	if ss.detached {
		ss.shard.exit()
		return
	}
	var revoked []string
	resp := wire.Batch{Kind: wire.KindResyncResp, Epoch: ss.srv.store.Epoch()}
	buf := ss.serveAll(b, resp, func(ki int, it db.Item, st *itemState) wire.Entry {
		key := b.Keys[ki]
		if st.kind != core.KindST1 {
			// ST1 never places copies; a declared copy there is a client
			// bug and gets a refresh without a subscription.
			if st.hasCopy = ss.allocAllowed(key); !st.hasCopy {
				revoked = append(revoked, key)
			}
		}
		e := wire.Entry{Key: key, Version: it.Version}
		if hint(b, ki) == it.Version {
			e.NotModified = true
		} else {
			e.Value = it.Value
		}
		return e
	})
	turn := ss.post(buf.B, reply)
	for _, key := range revoked {
		d := encodePooled(wire.Message{Kind: wire.KindDeleteReq, Key: key})
		ss.post(d.B, revoke)
		wire.PutBuf(d)
	}
	ss.shard.exit()
	if turn {
		ss.release(buf.B)
	}
	wire.PutBuf(buf)
}
