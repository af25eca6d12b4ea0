package replica

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/sched"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Server is the stationary computer: it owns the online database and runs
// the SC side of the allocation protocol for every attached mobile client.
// Sessions are partitioned across power-of-two shards (shard.go); every
// per-session operation touches only the owning shard, so the hot path
// takes no server-wide lock.
type Server struct {
	store  *db.Store
	mode   Mode
	now    atomic.Pointer[func() time.Time]
	shards []*shard
	nextID atomic.Uint64

	// Overload protection (admission.go). nSessions counts attached
	// sessions for the MaxSessions reservation check — an atomic rather
	// than a shard walk so TryAttach admits or refuses without touching
	// any shard token. memSoft is the soft memory watermark ShedToBudget
	// enforces; admission holds the attach-time policy and attachBucket
	// the server-wide attach-rate budget it spends.
	nSessions    atomic.Int64
	admission    atomic.Pointer[AdmissionConfig]
	attachBucket tokenBucket
	memSoft      atomic.Int64

	// relay is a relay station's parent face (relay.go); nil on a plain
	// SC, which leaves the server the two-node SC byte for byte.
	// holdFetch, nil in production, takes every child read's fetch as a
	// relay would: tests hold and complete fetches with it.
	relay     *relay
	holdFetch func(f *fetch)
}

// Session is the SC-side state for one mobile client. It is created by
// Attach and lives until Detach (explicit, or wired to the link's close
// callback), after which the server stops propagating to the client and
// forgets its allocation state — the mobile computer has left the system,
// exactly what happens when it disconnects or roams away for good.
//
// All mutable session state is guarded by the owning shard's
// single-writer token (shard.enter/exit), not a per-session lock: the
// shard IS the session's event loop.
type Session struct {
	srv   *Server
	shard *shard
	id    uint64
	link  transport.Link
	meter *Meter

	// Guarded by shard token. items is nil until the first key is
	// touched and again once the session has detached.
	items    map[string]*itemState
	detached bool
	// lastSeen is when the client last proved liveness: any received
	// frame, including pings. The idle reaper compares against it.
	lastSeen time.Time
	// memBytes is this session's share of the shard's memory account:
	// the base cost plus one itemMemCost per key with protocol state.
	memBytes int64
	// The send turn (post/release): sending says a goroutine is
	// transmitting this session's frames, and queue holds copies of the
	// frames posted meanwhile, in decision order, for it to send next.
	// closing (Evict) has the turn holder close the link once drained.
	sending, closing bool
	queue            []*wire.Buf
}

// NewServer creates a server over the given store with an automatic
// shard count (next power of two >= GOMAXPROCS). mode applies to every
// key; per-key modes can be layered later without protocol changes
// because all state is per-(session, key).
func NewServer(store *db.Store, mode Mode) (*Server, error) {
	return NewServerShards(store, mode, 0)
}

// NewServerShards is NewServer with an explicit shard count: a power of
// two between 1 and 4096, or 0 for the automatic count. One shard
// reproduces the old single-lock server's scheduling exactly; more
// shards split sessions into independent single-writer domains.
func NewServerShards(store *db.Store, mode Mode, shards int) (*Server, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = defaultShardCount()
	}
	if !validShardCount(shards) {
		return nil, fmt.Errorf("replica: shard count %d is not a power of two in [1, 4096]", shards)
	}
	s := &Server{store: store, mode: mode, shards: make([]*shard, shards)}
	for i := range s.shards {
		s.shards[i] = newShard(i)
	}
	clock := time.Now
	s.now.Store(&clock)
	return s, nil
}

// SetClock overrides the server's time source, for tests that need
// deterministic session ages.
func (s *Server) SetClock(now func() time.Time) {
	s.now.Store(&now)
}

func (s *Server) clock() func() time.Time {
	return *s.now.Load()
}

// Store exposes the underlying database (the SC's local operations go
// straight to it; only Write must go through the server so propagation
// happens).
func (s *Server) Store() *db.Store { return s.store }

// Shards returns the server's shard count.
func (s *Server) Shards() int { return len(s.shards) }

// ShardSessions returns the per-shard session counts, index == shard id.
func (s *Server) ShardSessions() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.enter()
		out[i] = len(sh.sessions)
		sh.exit()
	}
	return out
}

// Attach wires a client link into the server and returns the session
// handle, which carries the SC-side traffic meter and the Detach method.
// The link's handler is installed by Attach. The session is routed to a
// shard by its attach ID and never migrates.
//
// Attach is unconditional; servers running admission control accept
// clients through TryAttach instead (admission.go).
func (s *Server) Attach(link transport.Link) *Session {
	s.nSessions.Add(1)
	return s.attachSession(s.nextID.Add(1), link)
}

// attachSession does the work of Attach for an already-reserved slot with
// an already-assigned id (TryAttach needs the id first to pick the shard
// whose token bucket to charge).
func (s *Server) attachSession(id uint64, link transport.Link) *Session {
	sh := s.shards[sessionShard(id, len(s.shards))]
	sess := &Session{
		srv:      s,
		shard:    sh,
		id:       id,
		link:     link,
		meter:    newMeter(scMirror),
		lastSeen: s.clock()(),
		memBytes: sessionMemBase,
	}
	link.SetHandler(sess.onFrame)
	sh.addMem(sessionMemBase)
	sh.occupancy.Add(1)
	gSessions.Add(1)
	mSessionsOpened.Inc()
	obsTr.Record(obs.EvSessionOpen, "", "", 0, 0)
	sh.enter()
	sh.sessions[sess] = struct{}{}
	// Durable servers greet every attach with their store epoch so the
	// client can fence if the authority restarted (epoch.go); in-memory
	// servers (epoch 0) stay silent and wire-identical to pre-durability
	// builds.
	if epoch := s.store.Epoch(); epoch != 0 {
		sess.send(encodePooled(wire.Message{Kind: wire.KindAttachResp, Version: epoch}), none)
	} else {
		sh.exit()
	}
	return sess
}

// Meter returns the SC-side traffic meter for this client.
func (ss *Session) Meter() *Meter { return ss.meter }

// Detach removes the session: the server stops propagating writes to the
// client and drops its per-key allocation state. Safe to call more than
// once and from a link's close callback.
func (ss *Session) Detach() { ss.detach() }

// detach does the work of Detach and reports whether this call was the
// one that removed the session — concurrent Detach/ExpireIdle races are
// decided under the shard token, so exactly one caller gets true and the
// session gauges move exactly once.
func (ss *Session) detach() bool {
	sh := ss.shard
	sh.enter()
	_, present := sh.sessions[ss]
	if present {
		delete(sh.sessions, ss)
	}
	sh.unsubscribeAll(ss)
	ss.detached = true
	mem := ss.memBytes
	ss.memBytes = 0
	sh.exit()
	if present {
		sh.addMem(-mem)
		sh.occupancy.Add(-1)
		gSessions.Add(-1)
		ss.srv.nSessions.Add(-1)
		obsTr.Record(obs.EvSessionClose, "", "", 0, 0)
	}
	return present
}

// Sessions returns the number of currently attached clients, aggregated
// across shards.
func (s *Server) Sessions() int {
	n := 0
	for _, sh := range s.shards {
		sh.enter()
		n += len(sh.sessions)
		sh.exit()
	}
	return n
}

// ExpireIdle is the session reaper: it detaches every session whose
// client has been silent for at least ttl and closes its link, returning
// the number reaped. Run it on a ticker to bound how long a silently dead
// radio keeps consuming propagation traffic when the transport never
// delivers a close event (a half-open TCP connection, a crashed NAT).
// A healthy client's heartbeat interval must be well under ttl.
//
// The scan is per-shard: each shard's stale set is collected under its
// own token, then reaped outside it. A session that loses the race to a
// concurrent Detach is not counted or double-closed — detach() decides
// the winner under the shard token.
func (s *Server) ExpireIdle(ttl time.Duration) int {
	cutoff := s.clock()().Add(-ttl)
	reaped := 0
	var stale []*Session
	for _, sh := range s.shards {
		stale = stale[:0]
		sh.enter()
		for sess := range sh.sessions {
			if sess.lastSeen.Before(cutoff) {
				stale = append(stale, sess)
			}
		}
		sh.exit()
		for _, sess := range stale {
			if !sess.detach() {
				continue // a concurrent Detach won; not ours to count
			}
			// Detach leaves links alone (tests and reconnects rely on that);
			// the reaper closes explicitly so the client notices promptly.
			sess.link.Close()
			reaped++
			mSessionsExpired.Inc()
			obsTr.Record(obs.EvSessionExpire, "", "", int64(ttl/time.Millisecond), 0)
		}
	}
	return reaped
}

// Write commits a new value for key at the stationary computer and runs
// the write side of the protocol toward every attached client: propagate
// to subscribed clients (deallocating via delete-request under SW1), or
// just slide the local window when the SC is in charge. The store copies
// value; the returned item's Value is value itself, which the caller may
// reuse once Write returns.
func (s *Server) Write(key string, value []byte) (db.Item, error) {
	it, err := s.store.Put(key, value)
	if err != nil {
		return db.Item{}, err
	}
	s.fanOut(it, false)
	return it, nil
}

// fanOut is the server's one fan-out loop: it runs the write side of the
// protocol for a committed item (shared with a relay's mirror, relay.go,
// which commits through Install) or, with revoke set, revokes every copy
// of it.Key (invalidate). It walks each shard's key index rather than every
// session: a session with no state for the key needs nothing in any mode
// (ST1 never sends; ST2 sends only with a copy placed; SW without a copy
// pushes a Write into a window that is still all-writes — a no-op on the
// all-writes default a fresh itemState starts from), so only sessions
// that ever touched the key are visited. Shards are processed one at a
// time and no two shard tokens are ever held together. Each decision is
// posted under the token (post), so a session's frames leave in decision
// order; the sends themselves run outside it.
//
// Every session gets the identical WriteProp (every SW1 or revoked
// session the identical DeleteReq), so each frame is encoded once — on
// the first session that needs it — and the same bytes are handed to
// every link across all shards: a hot key with k subscribers costs one
// encode instead of k. it.Value is read only to encode, so a borrowed
// value is safe for the duration of the call. It returns the number of
// sessions sent a frame.
func (s *Server) fanOut(it db.Item, revoke bool) int {
	var propBuf, delBuf *wire.Buf
	n := 0
	for _, sh := range s.shards {
		// fanMu serializes fan-outs through this shard so the scratch
		// slice is reusable; it is never taken from inside a shard token
		// and protocol re-entry (onDeleteReq) takes only the token, so
		// holding it across the sends cannot deadlock.
		sh.fanMu.Lock()
		fan := sh.fan[:0]
		sh.enter()
		for _, sb := range sh.index[it.Key] {
			var cls sendClass
			if revoke {
				cls = sb.sess.prepareInvalidate(sb.st)
			} else {
				cls = sb.sess.prepareLocalWrite(sb.st)
			}
			var buf *wire.Buf
			switch cls {
			case none:
				continue
			case data:
				if propBuf == nil {
					propBuf = encodePooled(wire.Message{
						Kind: wire.KindWriteProp, Key: it.Key, Value: it.Value, Version: it.Version,
					})
				}
				buf = propBuf
			default:
				if delBuf == nil {
					delBuf = encodePooled(wire.Message{Kind: wire.KindDeleteReq, Key: it.Key})
				}
				buf = delBuf
			}
			n++
			if sb.sess.post(buf.B, cls) {
				fan = append(fan, fanEntry{sb.sess, buf.B})
			}
		}
		sh.exit()
		sh.fan = fan
		for _, e := range fan {
			e.sess.release(e.frame)
		}
		sh.fanMu.Unlock()
	}
	wire.PutBuf(propBuf)
	wire.PutBuf(delBuf)
	return n
}

// encodePooled encodes msg into a pooled buffer. The caller releases it
// with wire.PutBuf once every Send using it has returned.
func encodePooled(msg wire.Message) *wire.Buf {
	buf := wire.GetBuf()
	b, err := wire.AppendEncode(buf.B[:0], msg)
	if err != nil {
		wire.PutBuf(buf)
		panic(fmt.Sprintf("replica: encode %v: %v", msg.Kind, err))
	}
	buf.B = b
	return buf
}

// state returns (creating if needed) the session's state for key, and
// registers the session in the shard's key index on first touch. A new
// state, and the session's map, come from what departed sessions left on
// the shard when it kept any. Caller holds the shard token.
func (ss *Session) state(key string) *itemState {
	if st, ok := ss.items[key]; ok {
		return st
	}
	sh := ss.shard
	if ss.items == nil {
		ss.items, sh.spareItems = sh.spareItems, nil
		if ss.items == nil {
			ss.items = make(map[string]*itemState)
		}
	}
	st := sh.newState(ss.srv.mode)
	// Inserting a map key retains its bytes, and key may alias a borrowed
	// frame (wire.DecodeBorrowed): the map and the index take the store's
	// own copy, cloned only when the store has never held the key, so the
	// session never keeps transport memory alive.
	k, stored := ss.srv.store.Key(key)
	if !stored {
		k = strings.Clone(key)
	}
	ss.items[k] = st
	// A detached session's index entries and memory account were settled
	// by unsubscribeAll; a straggler frame that slips past a handler guard
	// must not re-open either (the index entry would outlive every
	// session).
	if !ss.detached {
		sh.subscribe(k, ss, st)
		cost := itemMemCost(k, ss.srv.mode)
		ss.memBytes += cost
		sh.addMem(cost)
	}
	return st
}

// prepareLocalWrite runs the SC write-path state machine for one client
// on st, its state for the written key (handed over by the key index),
// and reports what the server must transmit: the shared WriteProp
// (data), the shared DeleteReq (control), or nothing. Caller holds the
// shard token. Revocation (prepareInvalidate, relay.go) is the other
// decision the fan-out loop makes.
func (ss *Session) prepareLocalWrite(st *itemState) sendClass {
	if ss.detached {
		return none
	}
	switch st.kind {
	case core.KindST1:
		// Never a copy at the MC: the write is free.
	case core.KindST2:
		if st.hasCopy {
			return data
		}
	default:
		switch {
		case !st.hasCopy:
			// SC is in charge; the write is free of communication.
			st.window.Push(sched.Write)
		case st.window.Size() == 1:
			// SW1 optimization: the window after this write is the single
			// write, so the copy is certainly dropped; send only the
			// delete-request, never the data.
			st.hasCopy = false
			st.window.Fill(sched.Write)
			return control
		default:
			// k > 1: propagate; the MC is in charge and will deallocate
			// if the window turns write-majority, sending back a
			// DeleteReq that rides this write's connection.
			return data
		}
	}
	return none
}

// sendClass marks what, if anything, a protocol step must transmit, and
// how the frame is metered.
type sendClass uint8

const (
	none    sendClass = iota // nothing to send; liveness traffic is posted unmetered with it
	reply                    // a data message answering a request
	data                     // a propagated write: a data message on a new connection
	control                  // SW1's delete-request: a control message on a new connection
	revoke                   // a revocation: a control message
)

// post queues frame for the session's link in decision order and meters
// it. Caller holds the shard token. If no goroutine holds the session's
// send turn, the caller takes it: post returns true and the caller must
// release(frame) once it has left the token. Otherwise a copy of frame
// joins the queue the turn holder drains, and post returns false.
func (ss *Session) post(frame []byte, class sendClass) bool {
	if class == data || class == control {
		ss.meter.addConnection()
	}
	switch class {
	case reply, data:
		ss.meter.addData(len(frame))
	case control, revoke:
		ss.meter.addControl(len(frame))
	}
	if !ss.sending {
		ss.sending = true
		return true
	}
	b := wire.GetBuf()
	b.B = append(b.B[:0], frame...)
	ss.queue = append(ss.queue, b)
	return false
}

// release transmits frame, which its caller posted taking the send turn,
// then every frame queued behind it, and gives the turn up — closing the
// link first if the session is closing. Caller does not hold the shard
// token: a synchronous link runs the peer's handler inside Send, and it
// may answer on this goroutine. A closed link only loses traffic the
// meter already counted.
func (ss *Session) release(frame []byte) {
	_ = ss.link.Send(frame)
	var q []*wire.Buf
	for {
		// Swap the queue out; the drained slice goes back for reuse.
		ss.shard.enter()
		q, ss.queue = ss.queue, q[:0]
		ss.sending = len(q) > 0
		closing := ss.closing
		ss.shard.exit()
		if len(q) == 0 {
			if closing {
				ss.link.Close()
			}
			return
		}
		for i, b := range q {
			_ = ss.link.Send(b.B)
			wire.PutBuf(b)
			q[i] = nil
		}
	}
}

// send posts the frame in buf, leaves the shard token the caller holds,
// transmits if the turn fell to this goroutine, and returns buf to the
// pool: the one path for a single frame.
func (ss *Session) send(buf *wire.Buf, class sendClass) {
	turn := ss.post(buf.B, class)
	ss.shard.exit()
	if turn {
		ss.release(buf.B)
	}
	wire.PutBuf(buf)
}

// onFrame handles one message from the client. It runs as one event on
// the owning shard: state mutations and the frames they decide are posted
// under the shard token, sent after it is released.
func (ss *Session) onFrame(frame []byte) {
	// Any received frame — even a malformed one — proves the link is
	// alive; refresh the reaper's clock first.
	now := ss.srv.clock()()
	sh := ss.shard
	sh.enter()
	ss.lastSeen = now
	sh.exit()
	if wire.IsBatchFrame(frame) {
		// Borrowed, like a singleton below: a batch a relay must keep past
		// this handler is copied by fetchAll.
		b, err := wire.DecodeBatchBorrowed(frame)
		if err != nil {
			return
		}
		ss.onBatch(b)
		return
	}
	// Borrowed decode: msg aliases frame, which is valid for the duration
	// of this handler. Every dispatch below finishes with msg before
	// returning; state that outlives the handler is cloned at the point of
	// retention (session maps, the store).
	msg, err := wire.DecodeBorrowed(frame)
	if err != nil {
		// A malformed frame is a client bug; drop it. Metering stays
		// consistent because nothing was actioned.
		return
	}
	switch msg.Kind {
	case wire.KindReadReq:
		ss.onReadReq(msg)
	case wire.KindDeleteReq:
		ss.onDeleteReq(msg)
	case wire.KindPing:
		ss.onPing(msg)
	default:
		// ReadResp/WriteProp are server-to-client only; ignore.
	}
}

// onPing echoes a keepalive probe. Liveness traffic: the pong is not
// metered as protocol cost. A detached session stays silent so the
// client's heartbeat discovers the session is gone.
func (ss *Session) onPing(msg wire.Message) {
	ss.shard.enter()
	if ss.detached {
		ss.shard.exit()
		return
	}
	ss.send(encodePooled(wire.Message{Kind: wire.KindPong, Version: msg.Version}), none)
}

// onReadReq runs the SC read path. On a relay the mirror store is first
// freshened through the parent face; the request's Version field is the
// reader's floor (0 when the client does not track floors), forwarded so
// a relay never completes a read below what the reader has already seen.
// Then finishReadReq serves the key.
func (ss *Session) onReadReq(msg wire.Message) {
	if ss.srv.fetching() {
		// The fetch outlives this handler (an upstream fetch may resolve
		// on a later delivery), and msg.Key is borrowed transport memory:
		// the record takes the mirror store's own copy of the key, cloned
		// only when the station has never stored it.
		key, ok := ss.srv.store.Key(msg.Key)
		if !ok {
			key = strings.Clone(msg.Key)
		}
		ss.srv.startFetch(newFetch(ss, key, msg.Version, msg.ID, nil))
		return
	}
	ss.finishReadReq(msg.Key, msg.ID, true)
}

// finishReadReq serves key: under the shard token it copies the value out
// of the store into a pooled buffer (a lent store buffer would make the
// key's next write allocate), decides allocation, and posts the response
// — so a write committed before the read is served with it, and one
// committed after is propagated behind it. A read whose upstream fetch
// failed (!ok) is answered with a ReadFail instead, so the client knows
// no other answer will follow its request. Either answer echoes the
// request's id.
func (ss *Session) finishReadReq(key string, id uint64, ok bool) {
	sh := ss.shard
	sh.enter()
	if ss.detached {
		sh.exit()
		return
	}
	if !ok {
		ss.send(encodePooled(wire.Message{Kind: wire.KindReadFail, Key: key, ID: id}), none)
		return
	}
	st := ss.state(key)
	vb := wire.GetBuf()
	it, _ := ss.srv.store.GetCopy(key, vb.B[:0])
	vb.B = it.Value
	resp := wire.Message{Kind: wire.KindReadResp, Key: key, Value: it.Value, Version: it.Version, ID: id}
	if ss.allocOnRead(key, st) {
		// Piggyback the save indication and the window; the MC takes
		// charge.
		resp.Allocate, resp.Window = true, st.window
	}
	buf := encodePooled(resp)
	wire.PutBuf(vb)
	ss.send(buf, reply)
}

// allocOnRead is the SC's one allocation decision for a read of key: it
// slides st's window when the SC is in charge and reports whether the
// answer places a copy, setting the copy bit if so. ST1 never allocates,
// ST2 on first contact, SWk on a read majority; on a relay the parent
// face must also hold key. A read while the MC holds a copy is a stale
// race: served without changing allocation. Caller holds the shard token.
func (ss *Session) allocOnRead(key string, st *itemState) bool {
	if st.kind == core.KindST1 || st.hasCopy {
		return false
	}
	if st.kind == core.KindSW {
		st.window.Push(sched.Read)
		if !st.window.ReadMajority() {
			return false
		}
	}
	st.hasCopy = ss.allocAllowed(key)
	return st.hasCopy
}

// allocAllowed is a relay's allocation gate, the contiguity invariant: a
// child may hold key only while the station holds it on its parent face,
// so every copy lives on an unbroken root-to-leaf path. A plain SC always
// grants. Sessions, not keys, are sharded, so the parent face's copy bit
// is read across goroutines: under the shard token the caller holds, then
// the parent face's cache lock, in that order.
func (ss *Session) allocAllowed(key string) bool {
	r := ss.srv.relay
	if r == nil {
		return true
	}
	p := r.parent.Load()
	return p != nil && p.cache.Contains(key)
}

// onDeleteReq runs the SC side of an MC-initiated deallocation: take the
// window back and stop propagating.
func (ss *Session) onDeleteReq(msg wire.Message) {
	ss.shard.enter()
	defer ss.shard.exit()
	if ss.detached {
		// A straggler delete-request racing Detach must not re-create
		// state (and a key-index entry) for a session already torn down.
		return
	}
	st := ss.state(msg.Key)
	if !st.hasCopy {
		return // stale duplicate
	}
	st.hasCopy = false
	if st.kind == core.KindSW && msg.Window.Size() == st.window.Size() {
		// Adopt the window the MC maintained while in charge.
		st.window = msg.Window
	}
}
