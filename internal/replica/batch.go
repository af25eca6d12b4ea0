package replica

import (
	"context"
	"fmt"
	"slices"
	"strings"

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
	r := newReader(len(missing))
	for i, key := range missing {
		// No floor: joint reads record floors but are not gated.
		r.ws[i] = readWaiter{req: r, key: key}
		if arch, ok := c.cache.Archived(key); ok {
			hints[i] = arch.Version
		}
	}
	id := c.openLocked(r, len(missing), true)
	for i := range r.ws {
		c.queueLocked(&r.ws[i], id)
	}
	link := c.link
	c.mu.Unlock()

	// One connection, one control message for the whole batch.
	if err := c.ask(ctx, r, link, &wire.Batch{Kind: wire.KindMultiReadReq, ID: id, Keys: missing, Versions: hints}); err != nil {
		return nil, err
	}
	for i, s := range slot {
		if s > 0 {
			w := &r.ws[s-1]
			out[i] = db.Item{Key: w.key, Value: w.value, Version: w.version}
		}
	}
	r.release(true)
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

// onRead is the SC's one read handler: b, borrowed, is a read request of
// n keys, each with a floor and a hint in Versions — a ReadReq's one-key
// view (its floor, no hint), a MultiReadReq or a ResyncReq. On a relay the
// keys are freshened through the parent face first, the hints doubling as
// floors: the reader has seen the hinted version, so the parent face must
// not answer below it. The request is held meanwhile in a record the
// session's shard keeps, its keys the mirror store's own (cloned only for
// a key the station has never stored), as it outlives the handler that
// decoded it. finishRead answers once every key has resolved, in the form
// asked, so a joint answer is still one frame.
func (ss *Session) onRead(b *wire.Batch) {
	s := ss.srv
	if b.Kind == wire.KindResyncReq && b.Epoch != 0 {
		if epoch := s.store.Epoch(); epoch != 0 && b.Epoch != epoch {
			// The declaration was built under a dead epoch: the client's
			// warm state predates this incarnation, so re-asserting its
			// subscriptions would resurrect allocation bits the restart
			// wiped. Answer with a bare fence — the new epoch, no entries —
			// and let the client reattach cold. (A hint of 0 means the
			// client never learned an epoch; its copies were placed by some
			// live incarnation and the version-guarded warm path handles
			// them.)
			b.Keys, b.Versions = nil, nil
		}
	}
	if !s.fetching() || len(b.Keys) == 0 {
		ss.finishRead(b, true, nil)
		return
	}
	ss.shard.enter()
	r := ss.shard.takeRequest()
	ss.shard.exit()
	r.ss, r.b.Kind, r.b.ID = ss, b.Kind, b.ID
	for i, key := range b.Keys {
		k, ok := s.store.Key(key)
		if !ok {
			k = strings.Clone(key)
		}
		r.b.Keys, r.b.Versions = append(r.b.Keys, k), append(r.b.Versions, hint(b, i))
		r.ws = append(r.ws, readWaiter{req: r, key: k, floor: hint(b, i)})
	}
	// The starter holds one count until every key has started, so the
	// record is not answered and recycled under its loop.
	r.left.Store(int32(len(r.ws)) + 1)
	s.freshen(r)
	r.done(true)
}

// hint returns the version hint the batch carried for its ki-th key, 0
// when none.
func hint(b *wire.Batch, ki int) uint64 {
	if ki < len(b.Versions) {
		return b.Versions[ki]
	}
	return 0
}

// finishRead answers b, a read request whose keys are ready, in the form
// asked: a ReadResp for a ReadReq, a MultiReadResp for a MultiReadReq, a
// ResyncResp for a ResyncReq. Under the shard token it copies every key's
// value out of the store into one pooled buffer (a lent store buffer
// would make the key's next write allocate), so a write committed before
// the read is served with it and one committed after is propagated behind
// it. Each key of a read decides its allocation alone (allocOnRead), and
// a joint read's matching hint skips the payload. A resync
// instead re-asserts each declared copy the allocation gate allows
// (allocAllowed) and answers the rest normally but revokes them with a
// DeleteReq posted behind the answer, so the child drops a copy that would
// sit outside the root-to-leaf placement path; a matching hint marks the
// copy current. With ok false a key could not be freshened, and the read
// is refused so the reader knows no other answer follows: a ReadFail, or
// a MultiReadResp with no entries, neither metered as protocol cost; a
// refused resync goes unanswered (to the client, a lost frame). r, when
// set, is the relay's record b lives in: the shard keeps it once the
// answer is built.
func (ss *Session) finishRead(b *wire.Batch, ok bool, r *request) {
	sh := ss.shard
	sh.enter()
	if ss.detached || !ok && b.Kind == wire.KindResyncReq {
		sh.keepRequest(r)
		sh.exit()
		return
	}
	resp := wire.Batch{Kind: wire.KindReadResp, ID: b.ID}
	if b.Kind != wire.KindReadReq {
		resp.Kind, resp.Epoch = wire.KindMultiReadResp, ss.srv.store.Epoch()
		if b.Kind == wire.KindResyncReq {
			resp.Kind = wire.KindResyncResp
		}
	}
	class := reply
	var revoked []string
	vb := wire.GetBuf()
	var one [1]wire.Entry
	if !ok {
		class = none
		if b.Kind == wire.KindReadReq {
			resp.Kind, resp.Keys = wire.KindReadFail, b.Keys
		}
	} else {
		resp.Entries = one[:0]
		if len(b.Keys) > 1 {
			resp.Entries = make([]wire.Entry, 0, len(b.Keys))
		}
		for ki, key := range b.Keys {
			n := len(vb.B)
			it, _ := ss.srv.store.GetCopy(key, vb.B)
			vb.B = it.Value
			e := wire.Entry{Key: key, Value: vb.B[n:], Version: it.Version}
			st, h := ss.state(key), hint(b, ki)
			if b.Kind == wire.KindResyncReq {
				// ST1 never places copies; a declared copy there is a
				// client bug and gets a refresh without a subscription.
				if st.kind != core.KindST1 {
					if st.hasCopy = ss.allocAllowed(key); !st.hasCopy {
						revoked = append(revoked, key)
					}
				}
				e.NotModified = h == e.Version
			} else {
				e.NotModified = b.Kind == wire.KindMultiReadReq && h != 0 && h == e.Version
				if ss.allocOnRead(key, st) {
					// Piggyback the save indication and the window; the MC
					// takes charge.
					e.Allocate, e.Window = true, st.window
				}
			}
			if e.NotModified {
				e.Value = nil
			}
			resp.Entries = append(resp.Entries, e)
		}
	}
	buf, err := encodeFrame(&resp)
	if err != nil {
		panic(err)
	}
	wire.PutBuf(vb)
	sh.keepRequest(r)
	turn := ss.post(buf.B, class)
	for _, key := range revoked {
		d := encodePooled(wire.Message{Kind: wire.KindDeleteReq, Key: key})
		ss.post(d.B, revoke)
		wire.PutBuf(d)
	}
	sh.exit()
	if turn {
		ss.release(buf.B)
	}
	wire.PutBuf(buf)
}

// appendFrame encodes b in the form its kind names: a batch kind as a
// batch frame, a singleton kind as the message its one-key view stands
// for — a ReadReq's key and floor, a ReadResp's entry, a ReadFail's key.
// The singleton forms are the smaller: a one-key batch costs 6 bytes more
// per request and 13 more per answer.
func appendFrame(dst []byte, b *wire.Batch) ([]byte, error) {
	switch b.Kind {
	case wire.KindReadReq, wire.KindReadFail:
		return wire.AppendEncode(dst, wire.Message{Kind: b.Kind, Key: b.Keys[0], Version: hint(b, 0), ID: b.ID})
	case wire.KindReadResp:
		e := &b.Entries[0]
		return wire.AppendEncode(dst, wire.Message{Kind: b.Kind, Key: e.Key, Value: e.Value, Version: e.Version, Allocate: e.Allocate, Window: e.Window, ID: b.ID})
	}
	return wire.AppendEncodeBatch(dst, *b)
}

// encodeFrame encodes b (appendFrame) into a pooled buffer, which the
// caller releases with wire.PutBuf once every Send using it has returned.
func encodeFrame(b *wire.Batch) (*wire.Buf, error) {
	buf := wire.GetBuf()
	frame, err := appendFrame(buf.B[:0], b)
	if err != nil {
		wire.PutBuf(buf)
		return nil, fmt.Errorf("replica: encode %v: %w", b.Kind, err)
	}
	buf.B = frame
	return buf, nil
}
