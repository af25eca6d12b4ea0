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

	// Tree hooks (relay.go). origin, when set, intercepts every read-path
	// store fetch so a relay station can pull the value from its parent;
	// allocGate, when set, is consulted before any child allocation so a
	// relay never places a copy below itself that it does not hold above.
	// Both nil (the default) leaves the server byte-for-byte identical to
	// the plain two-node SC.
	origin    atomic.Pointer[Origin]
	allocGate atomic.Pointer[func(key string) bool]
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

	// Guarded by shard token:
	items    map[string]*itemState
	detached bool
	// lastSeen is when the client last proved liveness: any received
	// frame, including pings. The idle reaper compares against it.
	lastSeen time.Time
	// memBytes is this session's share of the shard's memory account:
	// the base cost plus one itemMemCost per key with protocol state.
	memBytes int64
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
		items:    make(map[string]*itemState),
		lastSeen: s.clock()(),
		memBytes: sessionMemBase,
	}
	link.SetHandler(sess.onFrame)
	sh.enter()
	sh.sessions[sess] = struct{}{}
	sh.exit()
	sh.addMem(sessionMemBase)
	sh.occupancy.Add(1)
	gSessions.Add(1)
	mSessionsOpened.Inc()
	obsTr.Record(obs.EvSessionOpen, "", "", 0, 0)
	// Durable servers greet every attach with their store epoch so the
	// client can fence if the authority restarted (epoch.go); in-memory
	// servers (epoch 0) stay silent and wire-identical to pre-durability
	// builds.
	sess.sendAttachResp()
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
	ss.items = make(map[string]*itemState)
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
// just slide the local window when the SC is in charge.
//
// The fan-out walks each shard's key index rather than every session: a
// session with no state for the key needs nothing in any mode (ST1 never
// sends; ST2 sends only with a copy placed; SW without a copy pushes a
// Write into a window that is still all-writes — a no-op on the
// all-writes default a fresh itemState starts from), so only sessions
// that ever touched the key are visited. Shards are processed one at a
// time, classification under the shard token and sends outside it (the
// in-memory transport delivers synchronously and the MC's deallocation
// delete-request re-enters the session on this goroutine); no two shard
// tokens are ever held together.
//
// The fan-out is also batched: every subscribed session receives the
// identical WriteProp (and every SW1 session the identical DeleteReq),
// so the frame is encoded once — lazily, on the first session that needs
// it — and the same bytes are handed to every link across all shards.
// Links never retain a frame after Send returns, so sharing one pooled
// buffer is safe, and a hot key with k subscribers costs one encode
// instead of k. The store copies value; the returned item's Value is
// value itself, which the caller may reuse once Write returns.
func (s *Server) Write(key string, value []byte) (db.Item, error) {
	it, err := s.store.Put(key, value)
	if err != nil {
		return db.Item{}, err
	}
	s.fanOut(it)
	return it, nil
}

// fanOut runs the write side of the protocol for one committed item
// toward every attached client. It is the propagation half of Write,
// shared with Apply (relay.go), which commits through Install instead of
// Put. it.Value is read only to encode the shared frame, so a borrowed
// value is safe for the duration of the call.
func (s *Server) fanOut(it db.Item) {
	var propBuf, delBuf *wire.Buf
	for _, sh := range s.shards {
		// fanMu serializes fan-outs through this shard so the scratch
		// slice is reusable; it is never taken from inside a shard token
		// and protocol re-entry (onDeleteReq) takes only the token, so
		// holding it across the sends cannot deadlock.
		sh.fanMu.Lock()
		fan := sh.fan[:0]
		sh.enter()
		for _, sb := range sh.index[it.Key] {
			if cls := sb.sess.prepareLocalWrite(sb.st); cls != none {
				fan = append(fan, fanEntry{sb.sess, cls})
			}
		}
		sh.exit()
		sh.fan = fan
		for _, e := range fan {
			switch e.class {
			case data:
				if propBuf == nil {
					propBuf = encodePooled(wire.Message{
						Kind: wire.KindWriteProp, Key: it.Key, Value: it.Value, Version: it.Version,
					})
				}
				e.sess.meter.addConnection()
				e.sess.meter.addData(len(propBuf.B))
				_ = e.sess.link.Send(propBuf.B)
			case control:
				if delBuf == nil {
					delBuf = encodePooled(wire.Message{Kind: wire.KindDeleteReq, Key: it.Key})
				}
				e.sess.meter.addConnection()
				e.sess.meter.addControl(len(delBuf.B))
				_ = e.sess.link.Send(delBuf.B)
			}
		}
		sh.fanMu.Unlock()
	}
	wire.PutBuf(propBuf)
	wire.PutBuf(delBuf)
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
// registers the session in the shard's key index on first touch. Caller
// holds the shard token.
func (ss *Session) state(key string) *itemState {
	st, ok := ss.items[key]
	if !ok {
		st = newItemState(ss.srv.mode)
		// Inserting a map key retains its bytes, and key may alias a
		// borrowed frame (wire.DecodeBorrowed); clone so the session never
		// keeps transport memory alive.
		k := strings.Clone(key)
		ss.items[k] = st
		// A detached session's index entries and memory account were
		// settled by unsubscribeAll; a straggler frame that slips past a
		// handler guard must not re-open either (the index entry would
		// outlive every session).
		if !ss.detached {
			ss.shard.subscribe(k, ss, st)
			cost := itemMemCost(k, ss.srv.mode)
			ss.memBytes += cost
			ss.shard.addMem(cost)
		}
	}
	return st
}

// prepareLocalWrite runs the SC write-path state machine for one client
// on st, its state for the written key (handed over by the key index),
// and reports what the server must transmit: the shared WriteProp
// (data), the shared DeleteReq (control), or nothing. Caller holds the
// shard token.
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

// sendClass marks what, if anything, a protocol step must transmit.
type sendClass uint8

const (
	none sendClass = iota
	data
	control
)

// onFrame handles one message from the client. It runs as one event on
// the owning shard: state mutations happen under the shard token, sends
// after it is released.
func (ss *Session) onFrame(frame []byte) {
	// Any received frame — even a malformed one — proves the link is
	// alive; refresh the reaper's clock first.
	now := ss.srv.clock()()
	sh := ss.shard
	sh.enter()
	ss.lastSeen = now
	sh.exit()
	if wire.IsBatchFrame(frame) {
		b, err := wire.DecodeBatch(frame)
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
	dead := ss.detached
	ss.shard.exit()
	if dead {
		return
	}
	buf := encodePooled(wire.Message{Kind: wire.KindPong, Version: msg.Version})
	_ = ss.link.Send(buf.B)
	wire.PutBuf(buf)
}

// onReadReq runs the SC read path: resolve the item — from the local
// store, or through the origin hook when this server is a relay whose
// value may live upstream — then serve it and decide allocation. The
// request's Version field is the reader's floor (0 when the client does
// not track floors), forwarded to the origin so a relay never completes
// a read below what the reader has already seen.
func (ss *Session) onReadReq(msg wire.Message) {
	if o := ss.srv.origin.Load(); o != nil {
		// The continuation outlives this handler (an upstream fetch may
		// resolve on a later delivery); msg.Key is borrowed transport
		// memory, so clone it now.
		key := strings.Clone(msg.Key)
		(*o)(key, msg.Version, func(it db.Item, ok bool) {
			if ok {
				ss.finishReadReq(key, it)
			}
			// A failed fetch answers nothing: to the client it is a lost
			// frame, repaired by its usual timeout/reconnect machinery.
		})
		return
	}
	// Copy, not borrow: a lent store buffer makes the key's next write
	// allocate. The copy lives until the response is sent.
	vb := wire.GetBuf()
	it, _ := ss.srv.store.GetCopy(msg.Key, vb.B[:0])
	vb.B = it.Value
	ss.finishReadReq(msg.Key, it)
	wire.PutBuf(vb)
}

// finishReadReq is the second half of onReadReq: with the item in hand,
// run the allocation decision under the shard token and send the
// response.
func (ss *Session) finishReadReq(key string, it db.Item) {
	sh := ss.shard
	sh.enter()
	if ss.detached {
		sh.exit()
		return
	}
	st := ss.state(key)
	resp := wire.Message{
		Kind: wire.KindReadResp, Key: key, Value: it.Value, Version: it.Version,
	}
	switch st.kind {
	case core.KindST1:
		// Never allocate.
	case core.KindST2:
		// Always allocate on first contact.
		if !st.hasCopy && ss.allocAllowed(key) {
			resp.Allocate = true
			st.hasCopy = true
		}
	default:
		if !st.hasCopy {
			st.window.Push(sched.Read)
			if st.window.ReadMajority() && ss.allocAllowed(key) {
				// Allocate: piggyback the save indication and the window;
				// the MC takes charge.
				resp.Allocate = true
				resp.Window = st.window
				st.hasCopy = true
			}
		}
		// A ReadReq while the MC holds a copy would be a stale race;
		// serve the value without changing allocation.
	}
	sh.exit()
	ss.sendData(resp)
}

// allocAllowed consults the allocation gate; nil (no relay) always
// grants. Caller holds the shard token; the gate must not call back into
// this server.
func (ss *Session) allocAllowed(key string) bool {
	g := ss.srv.allocGate.Load()
	return g == nil || (*g)(key)
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

// sendData encodes and transmits a data message through a pooled buffer:
// links never retain a frame after Send returns, so the buffer goes back
// to the pool immediately and the steady-state path allocates nothing.
func (ss *Session) sendData(msg wire.Message) {
	buf := encodePooled(msg)
	ss.meter.addData(len(buf.B))
	_ = ss.link.Send(buf.B) // a closed link only loses metering-visible traffic
	wire.PutBuf(buf)
}

func (ss *Session) sendControl(msg wire.Message) {
	buf := encodePooled(msg)
	ss.meter.addControl(len(buf.B))
	_ = ss.link.Send(buf.B)
	wire.PutBuf(buf)
}
