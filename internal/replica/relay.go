package replica

import (
	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/wire"
)

// Relay hooks. A support station in a replica tree (internal/tree) runs
// this package on both faces: a Server toward its children and a Client
// toward its parent. The hooks below are the seam between the two — the
// server's read path can be redirected through the parent (SetOrigin),
// its allocation decisions gated on the parent-face copy (SetAllocGate),
// and writes learned from the parent folded in as if they were local
// (Apply) or revoked downward (Invalidate). All hooks default to nil,
// which leaves the server byte-for-byte identical to the plain two-node
// SC — the depth-1 tree IS the two-node pair.

// Origin resolves a read-path fetch for a relay server: produce the item
// for key (at version >= floor when floor > 0) and call done exactly
// once. done(_, false) abandons the read — to the requesting client it
// is a lost frame, repaired by its normal timeout/retry machinery. The
// origin must not block: it is called on a transport delivery goroutine,
// so a fetch that needs the network registers a continuation (see
// Client.ReadThrough) instead of waiting. done may run synchronously or
// on a later delivery; the item it carries is only read during the call
// (values are copied at every retention point), but its Key is retained,
// so it must not alias transport memory.
type Origin func(key string, floor uint64, done func(it db.Item, ok bool))

// SetOrigin installs (or, with nil, removes) the read-path origin hook.
// Install hooks before attaching any session; the pointer is read per
// request.
func (s *Server) SetOrigin(o Origin) {
	if o == nil {
		s.origin.Store(nil)
		return
	}
	s.origin.Store(&o)
}

// SetAllocGate installs (or removes) the allocation gate: before any
// child allocation the server asks g whether a copy of key may be placed
// below this station. The gate runs under a shard token and must be
// quick and never call back into this server. A denied SW allocation
// still slides the window — the demand is recorded; the grant waits
// until the station secures its own copy.
func (s *Server) SetAllocGate(g func(key string) bool) {
	if g == nil {
		s.allocGate.Store(nil)
		return
	}
	s.allocGate.Store(&g)
}

// Apply folds an item learned from upstream into this server: install it
// into the (in-memory mirror) store, version-guarded, and — only when
// the version actually advanced — fan it out to subscribed children
// exactly like a local Write. A stale or duplicated delivery is fully
// inert: no store change, no frames, no window slides, which is what
// makes chaos-duplicated parent propagations safe to re-apply blindly.
// it.Key is retained by the store; it must not alias transport memory.
func (s *Server) Apply(it db.Item) (bool, error) {
	fresh, err := s.store.Install(it)
	if err != nil || !fresh {
		return false, err
	}
	s.fanOut(it)
	return true, nil
}

// Invalidate revokes every child copy of key: each session holding a
// copy drops its bit, its window resets to all-writes (the same state
// the client's own delete-request handler converges to), and one
// DeleteReq is sent per revoked session. Sessions without a copy are
// untouched. Returns the number of sessions revoked. A relay calls this
// when its own parent-face copy is deallocated, preserving the
// contiguity invariant: copies live on a root-to-leaf path, never on a
// disconnected island below a station that holds nothing.
func (s *Server) Invalidate(key string) int {
	n := 0
	var delBuf *wire.Buf
	for _, sh := range s.shards {
		sh.fanMu.Lock()
		fan := sh.fan[:0]
		sh.enter()
		for _, sb := range sh.index[key] {
			if sb.sess.prepareInvalidate(sb.st) {
				fan = append(fan, fanEntry{sb.sess, control})
			}
		}
		sh.exit()
		sh.fan = fan
		for _, e := range fan {
			if delBuf == nil {
				delBuf = encodePooled(wire.Message{Kind: wire.KindDeleteReq, Key: key})
			}
			e.sess.meter.addControl(len(delBuf.B))
			_ = e.sess.link.Send(delBuf.B)
			n++
		}
		sh.fanMu.Unlock()
	}
	wire.PutBuf(delBuf)
	return n
}

// prepareInvalidate drops the session's copy if st, its state for the
// invalidated key, holds one and reports whether a DeleteReq must be
// sent. Caller holds the shard token.
func (ss *Session) prepareInvalidate(st *itemState) bool {
	if ss.detached || !st.hasCopy {
		return false
	}
	st.hasCopy = false
	if st.kind == core.KindSW {
		st.window.Fill(sched.Write)
	}
	return true
}

// InvalidateAll revokes every child copy of every key — the fence
// response when the station's parent restarted and all warm state below
// it is untrustworthy. Returns the number of (session, key) revocations.
func (s *Server) InvalidateAll() int {
	seen := make(map[string]struct{})
	var keys []string
	for _, sh := range s.shards {
		sh.enter()
		for key := range sh.index {
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				keys = append(keys, key)
			}
		}
		sh.exit()
	}
	n := 0
	for _, key := range keys {
		n += s.Invalidate(key)
	}
	return n
}
