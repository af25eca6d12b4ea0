package replica

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
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
			c.noteFloorLocked(key, it.Version)
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
	c.pendingBatch = append(c.pendingBatch, batchWaiter{missing, ch})
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
// server for, in request order, and where its answer goes.
type batchWaiter struct {
	keys []string
	ch   chan wire.Batch
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
// install allocations and wake the oldest joint read the response
// answers. A late answer to a read that already gave up matches no
// waiter, or one that asked for the same keys, and so never completes a
// read with another read's items.
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
		if !e.Allocate {
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
	if c.trackFloors {
		// Joint reads record floors (they raise what singleton reads must
		// honor) but are not floor-gated themselves.
		for _, e := range b.Entries {
			c.noteFloorLocked(e.Key, e.Version)
		}
	}
	var ch chan wire.Batch
	for i, w := range c.pendingBatch {
		if w.answers(b.Entries) {
			ch = w.ch
			c.pendingBatch = append(c.pendingBatch[:i], c.pendingBatch[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if ch != nil {
		ch <- b
	}
}

// onBatch handles client-to-server batch messages. For a MultiReadReq:
// every key gets the same treatment as a singleton read request, but the
// whole answer rides one data message. On a relay the items are resolved
// through the origin first (see fetchAll); the allocation pass runs only
// once every key is in hand, so the answer is still one frame.
func (ss *Session) onBatch(b wire.Batch) {
	if b.Kind == wire.KindResyncReq {
		ss.onResyncReq(b)
		return
	}
	if b.Kind != wire.KindMultiReadReq {
		return
	}
	ss.fetchAll(b, ss.finishMultiRead)
}

// fetchAll resolves every key of a batch request — locally, or through
// the origin hook on a relay — and calls finish with the items once all
// have resolved. Any failed origin fetch drops the whole request (to the
// client, a lost frame). The batch's memory is owned (wire.DecodeBatch
// copies), so retaining b in the continuation is safe. The version hints
// double as fetch floors: the client has seen the hinted version, so the
// origin must not answer below it. An origin's item is only lent for the
// duration of done (on a relay its Value aliases the parent link's receive
// buffer, which the next frame overwrites), and this is a retention
// point: the value is kept until the last key resolves, so it is copied.
// Locally the values are copied too, into one pooled buffer released when
// finish returns: a store buffer lent out would make its next write allocate.
func (ss *Session) fetchAll(b wire.Batch, finish func(b wire.Batch, items []db.Item)) {
	items := make([]db.Item, len(b.Keys))
	o := ss.srv.origin.Load()
	if o == nil || len(b.Keys) == 0 {
		vb := wire.GetBuf()
		for i, key := range b.Keys {
			n := len(vb.B)
			items[i], _ = ss.srv.store.GetCopy(key, vb.B)
			vb.B = items[i].Value
			items[i].Value = vb.B[n:]
		}
		finish(b, items)
		wire.PutBuf(vb)
		return
	}
	var failed atomic.Bool
	var left atomic.Int64
	left.Store(int64(len(b.Keys)))
	for i, key := range b.Keys {
		floor := uint64(0)
		if i < len(b.Versions) {
			floor = b.Versions[i]
		}
		i := i
		(*o)(key, floor, func(it db.Item, ok bool) {
			if ok {
				it.Value = bytes.Clone(it.Value)
				items[i] = it
			} else {
				failed.Store(true)
			}
			if left.Add(-1) == 0 && !failed.Load() {
				finish(b, items)
			}
		})
	}
}

// finishMultiRead is the allocation half of a MultiReadReq, run with
// every item already resolved.
func (ss *Session) finishMultiRead(b wire.Batch, items []db.Item) {
	resp := wire.Batch{Kind: wire.KindMultiReadResp, Epoch: ss.srv.store.Epoch()}
	sh := ss.shard
	sh.enter()
	if ss.detached {
		sh.exit()
		return
	}
	for ki, key := range b.Keys {
		it := items[ki]
		st := ss.state(key)
		e := wire.Entry{Key: key, Value: it.Value, Version: it.Version}
		if ki < len(b.Versions) && b.Versions[ki] != 0 && b.Versions[ki] == it.Version {
			// Version hint matches: skip the payload.
			e.NotModified = true
			e.Value = nil
		}
		switch st.kind {
		case core.KindST1:
		case core.KindST2:
			if !st.hasCopy && ss.allocAllowed(key) {
				e.Allocate = true
				st.hasCopy = true
			}
		default:
			if !st.hasCopy {
				st.window.Push(sched.Read)
				if st.window.ReadMajority() && ss.allocAllowed(key) {
					e.Allocate = true
					e.Window = st.window
					st.hasCopy = true
				}
			}
		}
		resp.Entries = append(resp.Entries, e)
	}
	sh.exit()
	ss.sendBatch(resp)
}

// sendBatch encodes a batch response into a pooled buffer and transmits
// it, releasing the buffer as soon as Send returns (links never retain).
func (ss *Session) sendBatch(resp wire.Batch) {
	buf := wire.GetBuf()
	b, err := wire.AppendEncodeBatch(buf.B[:0], resp)
	if err != nil {
		wire.PutBuf(buf)
		panic(fmt.Sprintf("replica: encode batch response: %v", err))
	}
	buf.B = b
	ss.meter.addData(len(b))
	_ = ss.link.Send(b)
	wire.PutBuf(buf)
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
		sh := ss.shard
		sh.enter()
		dead := ss.detached
		sh.exit()
		if !dead {
			ss.sendBatch(wire.Batch{Kind: wire.KindResyncResp, Epoch: epoch})
		}
		return
	}
	ss.fetchAll(b, ss.finishResync)
}

// finishResync is the subscription half of a ResyncReq, run with every
// declared key's item already resolved. On a relay the allocation gate
// decides per key whether the declared copy may stand: a key the relay
// could not secure upstream is answered normally but then revoked with a
// DeleteReq, so the child drops a copy that would sit outside the
// root-to-leaf placement path.
func (ss *Session) finishResync(b wire.Batch, items []db.Item) {
	resp := wire.Batch{Kind: wire.KindResyncResp, Epoch: ss.srv.store.Epoch()}
	var revoke []string
	sh := ss.shard
	sh.enter()
	if ss.detached {
		sh.exit()
		return
	}
	for ki, key := range b.Keys {
		it := items[ki]
		st := ss.state(key)
		if st.kind != core.KindST1 {
			// ST1 never places copies; a declared copy there is a client
			// bug and gets a refresh without a subscription.
			if ss.allocAllowed(key) {
				st.hasCopy = true
			} else {
				// b's memory is owned (wire.DecodeBatch copies), so the key
				// can be retained as-is.
				revoke = append(revoke, key)
			}
		}
		e := wire.Entry{Key: key, Version: it.Version}
		hint := uint64(0)
		if ki < len(b.Versions) {
			hint = b.Versions[ki]
		}
		if hint == it.Version {
			e.NotModified = true
		} else {
			e.Value = it.Value
		}
		resp.Entries = append(resp.Entries, e)
	}
	sh.exit()
	ss.sendBatch(resp)
	for _, key := range revoke {
		ss.sendControl(wire.Message{Kind: wire.KindDeleteReq, Key: key})
	}
}
