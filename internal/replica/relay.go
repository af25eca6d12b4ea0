package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
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
	// OnRead observes a read of key or, when declared is not the zero
	// Window, the requests a resync declared for it.
	OnRead(key string, declared core.Window) bool
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

// freshen reads a child's request, r, through the parent face before it
// is answered (gather): each key resolves from the station's own copy or
// rides one request up, and placement observes each read — or the window
// a resync declared for the key. It runs on a child delivery goroutine
// and never blocks. Without a parent face every key fails, and the read
// is refused.
func (s *Server) freshen(r *request) {
	if s.holdFetch != nil {
		s.holdFetch(r)
		return
	}
	for i := range r.ws {
		var declared core.Window
		if i < len(r.b.Windows) {
			declared = r.b.Windows[i]
		}
		s.noteRead(r.ws[i].key, declared)
	}
	p := s.relay.parent.Load()
	if p == nil {
		fail(r.chain())
		return
	}
	p.gather(r.chain(), r.b.Kind != wire.KindReadReq)
}

// fetched resolves w, a key of a child's read, once the parent face has
// served it: it mirrors the value (it.Value is borrowed), lets placement
// reconsider the key, and counts the key resolved.
func (s *Server) fetched(w *readWaiter, it db.Item) {
	if it.Version > 0 {
		s.mirror(db.Item{Key: w.key, Value: it.Value, Version: it.Version})
	}
	s.realize(w.key)
	w.req.done(true)
}

// parentApplied mirrors a value the parent face learned passively — a
// WriteProp or a resync re-ship — downward, and placement observes the
// write. it.Key is the parent face's own; it.Value is borrowed.
func (s *Server) parentApplied(it db.Item) {
	s.noteWrite(it.Key)
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

// noteRead feeds a read of key to placement, or the window a resync
// declared for it.
func (s *Server) noteRead(key string, declared core.Window) {
	r := s.relay
	if r.placement == nil {
		return
	}
	r.mu.Lock()
	r.placement.OnRead(key, declared)
	r.mu.Unlock()
}

// noteWrite feeds a write of key to placement.
func (s *Server) noteWrite(key string) {
	r := s.relay
	if r.placement == nil {
		return
	}
	r.mu.Lock()
	r.placement.OnWrite(key)
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
