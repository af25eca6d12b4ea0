package replica

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
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
// ends, on top of the client-wide Timeout. A refused joint read (an
// answer with no entries, from a relay that could not freshen every key)
// fails with ErrOffline, as a refused singleton read does.
func (c *Client) ReadManyContext(ctx context.Context, keys []string) ([]db.Item, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]db.Item, len(keys))
	// slot[i] is 0 for a key served from the cache, else 1 + the index of
	// its entry in the request.
	slot := make([]int32, len(keys))

	c.mu.Lock()
	if c.offline {
		c.mu.Unlock()
		return nil, ErrOffline
	}
	misses := 0
	for i, key := range keys {
		if it, ok := c.cache.Get(key, 0); ok {
			c.noteFloorLocked(it.Key, it.Version)
			out[i] = it
			continue
		}
		slot[i] = -1
		misses++
	}
	if misses == 0 {
		c.mu.Unlock()
		return out, nil
	}
	missing := askOnce(keys, slot, misses)
	hints := make([]uint64, len(missing))
	for i, key := range missing {
		if arch, ok := c.cache.Archived(key); ok {
			hints[i] = arch.Version
		}
	}
	c.seq++
	w := batchWaiter{id: c.seq, ch: make(chan bool, 1), keys: missing, items: make([]db.Item, len(missing))}
	c.pendingBatch = append(c.pendingBatch, w)
	link := c.link
	c.mu.Unlock()

	// One connection, one control message for the whole batch.
	c.meter.addConnection()
	buf := wire.GetBuf()
	frame, err := wire.AppendEncodeBatch(buf.B[:0], wire.Batch{Kind: wire.KindMultiReadReq, ID: w.id, Keys: missing, Versions: hints})
	if err != nil {
		wire.PutBuf(buf)
		c.cancelPendingBatch(w.id)
		return nil, fmt.Errorf("replica: encode batch: %w", err)
	}
	buf.B = frame
	c.meter.addControl(len(frame))
	if link == nil {
		wire.PutBuf(buf)
		c.cancelPendingBatch(w.id)
		return nil, ErrOffline
	}
	err = link.Send(frame)
	wire.PutBuf(buf)
	if err != nil {
		c.cancelPendingBatch(w.id)
		c.suspect(link, err)
		// As in ReadContext: a failed send is an offline condition.
		return nil, fmt.Errorf("%w: %v", ErrOffline, err)
	}

	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case served, ok := <-w.ch:
		if !ok || !served {
			return nil, ErrOffline
		}
	case <-timeout:
		c.cancelPendingBatch(w.id)
		c.suspect(link, ErrTimeout)
		return nil, ErrTimeout
	case <-ctx.Done():
		c.cancelPendingBatch(w.id)
		return nil, ctx.Err()
	}
	for i, s := range slot {
		if s > 0 {
			out[i] = w.items[s-1]
		}
	}
	return out, nil
}

// askOnce numbers the keys a joint read must ask for: each missed key
// (slot -1) gets 1 + the index of its key in the returned request, which
// names every distinct missed key once, in order of first occurrence.
// Sorting the misses by key groups the duplicates, with no map.
func askOnce(keys []string, slot []int32, misses int) []string {
	order := make([]int32, 0, misses)
	for i, s := range slot {
		if s < 0 {
			order = append(order, int32(i))
		}
	}
	// Stable: each group of equal keys keeps its first occurrence first,
	// and the others point at it (slot -2 - first).
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	distinct := 0
	for g := 0; g < len(order); g++ {
		first := order[g]
		for g+1 < len(order) && keys[order[g+1]] == keys[first] {
			g++
			slot[order[g]] = -2 - first
		}
		distinct++
	}
	ask := make([]string, 0, distinct)
	for i, s := range slot {
		switch {
		case s == -1:
			ask = append(ask, keys[i])
			slot[i] = int32(len(ask))
		case s < -1:
			slot[i] = slot[-2-s]
		}
	}
	return ask
}

// batchWaiter is a parked joint read: its request id, the keys it asked
// for, the items its answer fills in (owned, one per key) and the channel
// that says whether the answer served them. A relay's joint read
// (readThroughAll) has none: its fetches park as singleton reads do.
type batchWaiter struct {
	id    uint64
	ch    chan bool
	keys  []string
	items []db.Item
}

// cancelPendingBatch unparks the joint read with request id id, if it is
// still parked.
func (c *Client) cancelPendingBatch(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pendingBatch = slices.DeleteFunc(c.pendingBatch, func(w batchWaiter) bool { return w.id == id })
}

// onBatch handles server-to-client batch messages; b is borrowed from the
// frame. For a MultiReadResp: install each allocation its request id
// allows (installLocked), whether or not the joint read that asked is
// still parked, and wake that read with owned values: the cache's copy
// where the answer placed one, the archived value it revalidated, or a
// clone. At a relay's parent face, an answer no ReadMany waits for
// answers the relay's fetches (onJointResp). An answer to a
// request sent on an earlier link is ignored.
func (c *Client) onBatch(b wire.Batch) {
	if b.Kind == wire.KindResyncResp {
		c.onResyncResp(b)
		return
	}
	if b.Kind != wire.KindMultiReadResp {
		return
	}
	c.mu.Lock()
	if b.ID <= c.since {
		c.mu.Unlock()
		return
	}
	if c.epoch == 0 && b.Epoch != 0 {
		// A joint read can be the first frame that tells an attach-greeting-
		// deprived client which epoch it is talking to; adopt it. (A changed
		// epoch cannot arrive here — restarts kill links, and the fence path
		// is the resync answer's job.)
		c.epoch = b.Epoch
	}
	var w batchWaiter
	if i := slices.IndexFunc(c.pendingBatch, func(w batchWaiter) bool { return w.id == b.ID }); i >= 0 {
		w = c.pendingBatch[i]
		c.pendingBatch = slices.Delete(c.pendingBatch, i, i+1)
	} else if c.relay != nil {
		c.mu.Unlock()
		c.onJointResp(b)
		return
	}
	// The answer serves the read only if it has the read's keys, in order;
	// anything else (a relay's refusal has no entries) fails it.
	served := w.ch != nil && len(b.Entries) == len(w.keys)
	for i := 0; served && i < len(b.Entries); i++ {
		served = b.Entries[i].Key == w.keys[i]
	}
	for i, e := range b.Entries {
		it := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}
		if e.NotModified {
			// The archived value is confirmed current, unless a live copy
			// at that version already is.
			if live, ok := c.cache.Peek(e.Key); ok && live.Version == e.Version {
				it = live
			} else if arch, ok := c.cache.Revalidated(e.Key); ok {
				it = arch
			}
		}
		if served {
			// Joint reads record floors (they raise what singleton reads
			// must honor) but are not floor-gated themselves.
			c.noteFloorLocked(w.keys[i], e.Version)
		}
		owned := e.NotModified
		if e.Allocate {
			if copied, ok := c.installLocked(it, e.Window, b.ID, served); ok && served {
				it.Value, owned = copied, true
			}
		}
		if served {
			if !owned {
				it.Value = bytes.Clone(it.Value)
			}
			w.items[i] = db.Item{Key: w.keys[i], Value: it.Value, Version: it.Version}
		}
	}
	c.mu.Unlock()
	if w.ch != nil {
		w.ch <- served
	}
}

// onBatch handles client-to-server batch messages. For a MultiReadReq:
// every key gets the same treatment as a singleton read request, but the
// whole answer rides one data message. On a relay the keys are freshened
// through the parent face first (see fetchAll); the answer is built only once
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
// record the keys' fetch records count down. It holds its own copy of the
// request, kept past the handler that decoded it: the keys are the mirror
// store's own (cloned only for a key the station has never stored), as a
// singleton fetch's are, and the key and hint arrays are reused.
type fetchBatch struct {
	b      wire.Batch
	keys   []string
	hints  []uint64
	left   atomic.Int64
	failed atomic.Bool
}

var batchPool = sync.Pool{New: func() any { return new(fetchBatch) }}

// fetchAll answers a batch request once every key is ready to be served:
// at once on a plain server, after every key's fetch has completed on a
// relay. b is borrowed from the frame, so the relay answers from the
// fetchBatch's copy. The version hints double as fetch floors: the client
// has seen the hinted version, so the parent face must not answer below
// it. A failed fetch fails the whole request: a joint read is refused
// (refuseMultiRead), a resync goes unanswered (to the client, a lost
// frame).
func (ss *Session) fetchAll(b wire.Batch) {
	if !ss.srv.fetching() || len(b.Keys) == 0 {
		ss.finishBatch(b)
		return
	}
	fb := batchPool.Get().(*fetchBatch)
	fb.keys, fb.hints = fb.keys[:0], fb.hints[:0]
	for i, key := range b.Keys {
		k, ok := ss.srv.store.Key(key)
		if !ok {
			k = strings.Clone(key)
		}
		fb.keys = append(fb.keys, k)
		fb.hints = append(fb.hints, hint(b, i))
	}
	fb.b = wire.Batch{Kind: b.Kind, Epoch: b.Epoch, ID: b.ID, Keys: fb.keys, Versions: fb.hints}
	// The starter holds one count until every fetch has started, so the
	// record is not answered and recycled under its loop.
	fb.left.Store(int64(len(b.Keys)) + 1)
	ss.srv.startBatch(ss, fb)
	fb.done(ss, true)
}

// done counts one key's fetch; the last one answers the batch (or, if any
// failed, refuses a joint read) and recycles fb.
func (fb *fetchBatch) done(ss *Session, ok bool) {
	if !ok {
		fb.failed.Store(true)
	}
	if fb.left.Add(-1) != 0 {
		return
	}
	switch {
	case !fb.failed.Load():
		ss.finishBatch(fb.b)
	case fb.b.Kind == wire.KindMultiReadReq:
		ss.refuseMultiRead(fb.b.ID)
	}
	clear(fb.keys)
	fb.b = wire.Batch{}
	fb.failed.Store(false)
	batchPool.Put(fb)
}

// refuseMultiRead answers a joint read the station could not freshen
// with no entries, so the reader fails it at once instead of waiting for
// an answer that never comes. Like a ReadFail, it is not metered as
// protocol cost.
func (ss *Session) refuseMultiRead(id uint64) {
	ss.shard.enter()
	if ss.detached {
		ss.shard.exit()
		return
	}
	buf := wire.GetBuf()
	frame, err := wire.AppendEncodeBatch(buf.B[:0], wire.Batch{Kind: wire.KindMultiReadResp, Epoch: ss.srv.store.Epoch(), ID: id})
	if err != nil {
		panic(fmt.Sprintf("replica: encode batch refusal: %v", err))
	}
	buf.B = frame
	ss.send(buf, none)
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
	resp.Entries = make([]wire.Entry, 0, len(b.Keys))
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
	resp := wire.Batch{Kind: wire.KindMultiReadResp, Epoch: ss.srv.store.Epoch(), ID: b.ID}
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
