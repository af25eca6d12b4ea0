package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/transport"
)

// A relay station of a replica tree (internal/tree) is one Server: its
// sessions are the child face, and the Client it owns (ConnectParent) is
// the parent face. A child's read the mirror cannot vouch for is read
// through the parent face; a child may be granted a copy only while the
// parent face holds one; and what the parent face learns — a write, a
// lost copy, an epoch fence — reaches the children as a fan-out, a
// revocation or a revocation of everything.

// Placement votes on the keys a relay should hold (tree.Table is one): it
// observes the reads and writes that reach the station, and the relay
// sheds any parent-face copy the vote turns against. The relay serializes
// its calls.
type Placement interface {
	OnRead(key string) bool
	OnWrite(key string) bool
	Holds(key string) bool
}

// relay is a relay server's parent-face state.
type relay struct {
	parent    atomic.Pointer[Client] // nil until ConnectParent
	mu        sync.Mutex             // serializes placement
	placement Placement              // nil: the edge protocol alone decides
}

// NewRelay creates a relay station's server over store, its mirror, with
// an explicit shard count (see NewServerShards) and a placement policy
// (nil for none). Until ConnectParent it refuses every child read.
func NewRelay(store *db.Store, mode Mode, shards int, placement Placement) (*Server, error) {
	s, err := NewServerShards(store, mode, shards)
	if err != nil {
		return nil, err
	}
	s.relay = &relay{placement: placement}
	return s, nil
}

// ConnectParent wires a relay's parent face over link: a Client with read
// floors on, so the subtree's reads are monotone per key. Call it once,
// before child traffic needs the parent; later outages reuse the same
// client (Suspend/ResumeResync, Reattach, a Supervisor).
func (s *Server) ConnectParent(link transport.Link) (*Client, error) {
	if s.relay == nil {
		return nil, errors.New("replica: ConnectParent on a server that is not a relay")
	}
	if s.relay.parent.Load() != nil {
		return nil, errors.New("replica: the relay already has a parent face")
	}
	c, err := newClient(link, s.mode, s)
	if err != nil {
		return nil, err
	}
	s.relay.parent.Store(c)
	return c, nil
}

// Parent returns a relay's parent face: nil on a plain server and before
// ConnectParent.
func (s *Server) Parent() *Client {
	if s.relay == nil {
		return nil
	}
	return s.relay.parent.Load()
}

// fetching reports whether child reads are freshened before they are
// served: on a relay, or with a test's holdFetch.
func (s *Server) fetching() bool { return s.relay != nil || s.holdFetch != nil }

// startFetch freshens the mirror for a child's read, f, through the
// parent face. It runs on a child delivery goroutine and never blocks:
// readThrough completes f from the station's own copy or parks it for the
// upstream round trip, and fetched finishes it either way.
func (s *Server) startFetch(f *fetch) {
	if s.holdFetch != nil {
		s.holdFetch(f)
		return
	}
	s.note(f.w.key, sched.Read)
	p := s.relay.parent.Load()
	if p == nil {
		mFetchFailed.Inc()
		f.done(false)
		return
	}
	p.readThrough(f)
}

// startBatch freshens the mirror for every key of a child's batch, fb,
// as startFetch does for one key, except that the parent face reads all
// the keys its own copies cannot serve in one joint read
// (readThroughAll). The caller holds a count on fb, so its keys stay put
// while the loop reads them.
func (s *Server) startBatch(ss *Session, fb *fetchBatch) {
	if s.holdFetch != nil {
		for i, key := range fb.keys {
			s.holdFetch(newFetch(ss, key, fb.hints[i], 0, fb))
		}
		return
	}
	p := s.relay.parent.Load()
	g := gatherPool.Get().(*gather)
	for i, key := range fb.keys {
		f := newFetch(ss, key, fb.hints[i], 0, fb)
		if p == nil {
			mFetchFailed.Inc()
			f.done(false)
			continue
		}
		s.note(key, sched.Read)
		g.fetches = append(g.fetches, f)
	}
	if len(g.fetches) > 0 {
		p.readThroughAll(g)
	}
	g.release()
}

// fetched finishes f once the parent face resolved it: it counts the
// fetch by the path readThrough took, mirrors the value (it.Value is
// borrowed), lets placement reconsider the key, and hands f back to serve
// the child from the mirror.
func (s *Server) fetched(f *fetch, it db.Item, ok bool) {
	if !ok {
		mFetchFailed.Inc()
		f.done(false)
		return
	}
	if f.upstream {
		mFetchParent.Inc()
	} else {
		mFetchLocal.Inc()
	}
	key := f.w.key
	if it.Version > 0 {
		s.mirror(db.Item{Key: key, Value: it.Value, Version: it.Version})
	}
	s.realize(key)
	f.done(true)
}

// parentApplied mirrors a value the parent face learned passively — a
// WriteProp or a resync re-ship — downward, and placement observes the
// write. it.Key is the parent face's own; it.Value is borrowed.
func (s *Server) parentApplied(it db.Item) {
	s.note(it.Key, sched.Write)
	if it.Version > 0 {
		s.mirror(it)
	}
	s.realize(it.Key)
}

// mirror installs it into the mirror store, version-guarded, and — only
// when the version advanced — fans it out to subscribed children exactly
// like a local Write. A stale or duplicated delivery is inert: no store
// change, no frames, no window slides. it.Key is retained by the store,
// so it must be owned.
func (s *Server) mirror(it db.Item) {
	if fresh, _ := s.store.Install(it); fresh {
		mApplies.Inc()
		s.fanOut(it, false)
	}
}

// invalidate revokes every child copy of key: each session holding a copy
// drops its bit, its window resets to all writes (the state the child's
// own delete-request handler converges to), and one DeleteReq is posted
// per revoked session. A relay calls it when its parent-face copy is
// dropped, so copies live on a root-to-leaf path, never on an island
// below a station that holds nothing. Returns the sessions revoked.
func (s *Server) invalidate(key string) int {
	n := s.fanOut(db.Item{Key: key}, true)
	mInvalidations.Add(uint64(n))
	return n
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

// fence answers an epoch fence on the parent face: the authority
// restarted, so every copy below this station predates the restart and
// must go. A key indexed on several shards is revoked once.
func (s *Server) fence() {
	mFences.Inc()
	keys := make(map[string]struct{})
	for _, sh := range s.shards {
		sh.enter()
		for key := range sh.index {
			keys[key] = struct{}{}
		}
		sh.exit()
	}
	for key := range keys {
		s.invalidate(key)
	}
}

// note feeds a read or write of key to placement.
func (s *Server) note(key string, op sched.Op) {
	r := s.relay
	if r.placement == nil {
		return
	}
	r.mu.Lock()
	if op == sched.Read {
		r.placement.OnRead(key)
	} else {
		r.placement.OnWrite(key)
	}
	r.mu.Unlock()
}

// realize enforces placement's vote on key: a copy it votes against is
// shed, and the drop cascades to every child copy.
func (s *Server) realize(key string) {
	r := s.relay
	if r.placement == nil {
		return
	}
	r.mu.Lock()
	hold := r.placement.Holds(key)
	r.mu.Unlock()
	if p := r.parent.Load(); !hold && p != nil && p.DropCopy(key) {
		mPlacementDrops.Inc()
	}
}
