package replica

import (
	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
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

// Origin freshens a relay server's mirror store for a read of key: make
// the store hold key at version >= floor (when floor > 0) — typically by
// Apply-ing what the parent face returns — then call done exactly once.
// The server then serves the read from the store itself, under the
// session's shard token. done(false) refuses the read: the client is
// answered with a ReadFail, which fails it. The origin must not block: it is called on a
// transport delivery goroutine, so a fetch that needs the network
// registers a continuation (see Client.ReadThrough) instead of waiting.
// done may run synchronously or on a later delivery. key is owned and may
// be retained.
type Origin func(key string, floor uint64, done func(ok bool))

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
	s.fanOut(it, false)
	return true, nil
}

// Invalidate revokes every child copy of key: each session holding a
// copy drops its bit, its window resets to all-writes (the same state
// the client's own delete-request handler converges to), and one
// DeleteReq is posted per revoked session, behind whatever the session
// was sent before. Sessions without a copy are untouched. Returns the
// number of sessions revoked. A relay calls this when its own parent-face
// copy is deallocated, preserving the contiguity invariant: copies live
// on a root-to-leaf path, never on a disconnected island below a station
// that holds nothing.
func (s *Server) Invalidate(key string) int {
	return s.fanOut(db.Item{Key: key}, true)
}

// prepareInvalidate is the revocation decision of the fan-out loop: drop
// the session's copy if st, its state for the invalidated key, holds one,
// and report whether a DeleteReq must be sent. Caller holds the shard
// token.
func (ss *Session) prepareInvalidate(st *itemState) sendClass {
	if ss.detached || !st.hasCopy {
		return none
	}
	st.hasCopy = false
	if st.kind == core.KindSW {
		st.window.Fill(sched.Write)
	}
	return revoke
}

// InvalidateAll revokes every child copy of every key — the fence
// response when the station's parent restarted and all warm state below
// it is untrustworthy. Returns the number of (session, key) revocations.
// A key indexed on several shards is revoked once: each Invalidate walks
// every shard.
func (s *Server) InvalidateAll() int {
	keys := make(map[string]struct{})
	for _, sh := range s.shards {
		sh.enter()
		for key := range sh.index {
			keys[key] = struct{}{}
		}
		sh.exit()
	}
	n := 0
	for key := range keys {
		n += s.Invalidate(key)
	}
	return n
}
