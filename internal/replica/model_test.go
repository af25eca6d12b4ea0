package replica

import (
	"sort"

	"mobirep/internal/core"
	"mobirep/internal/sched"
	"mobirep/internal/wire"
)

// Model is a single-goroutine reference model of the MC/SC protocol state
// machine of section 4: the copy-at-MC bit as seen from each side, the
// sliding-window contents, the MC cache versions, and the store versions.
// The conformance harness (conformance_test.go) drives the real Client and
// Server through a fault-injecting transport and, in lockstep, feeds the
// model the exact same operations and delivered frames; every frame the
// real implementation emits and every read result it returns must match
// the model's prediction, and so must the final per-key state.
//
// The model is the specification under unreliable delivery, so it encodes
// the hardened semantics the implementation must provide:
//
//   - a duplicated allocating ReadResp must not re-allocate or roll the
//     window back (allocation applies only when no copy is held);
//   - a duplicated or reordered WriteProp whose version does not advance
//     the cache must not slide the window (stale propagations are inert);
//   - a WriteProp arriving while the MC holds no copy means the SC has
//     lost (or not yet received) the deallocation — the MC re-asserts it
//     with a DeleteReq so the SC stops propagating into the void;
//   - every read request and every DeleteReq the MC sends draws the next
//     id from one sequence, and a read's answer echoes its id; a
//     DeleteReq sets its key's mark to its own id, and one received that
//     drops a copy sets it to the last id drawn;
//   - an allocating answer installs only if its id is above its key's
//     mark: the SC serves a read requested before a DeleteReq first, so
//     the DeleteReq cancels that allocation, and FIFO delivery brings
//     every answer the SC sent before its DeleteReq ahead of it, so an
//     older id arriving later is a duplicate. Answers to requests sent
//     on an earlier link are ignored.
//
// The recovery layer adds two exchanges, modeled here so the conformance
// explorer can schedule them against chaos faults:
//
//   - Ping/Pong keepalives are stateless echoes (DeliverToServer answers
//     a Ping with a Pong carrying the same sequence number);
//   - warm resync: ResyncRequest is the declaration the client must emit
//     on ResumeResync, DeliverResyncToServer re-asserts the declared
//     subscriptions and predicts the server's answer, and
//     DeliverResyncToClient applies that answer — refreshing stale
//     copies, counting missed writes into the window (capped at K), and
//     deallocating keys the outage turned write-majority. All of it is
//     duplicate-tolerant: re-delivered resync traffic must be inert.
//
// The overload layer (admission.go) adds eviction: EvictSC models the
// server shedding the session — a Busy frame goes out first, then the
// SC-side state resets and the server goes silent toward this client
// (straggler frames hit a detached session and are ignored; writes still
// commit but propagate nowhere). The client's MC state survives untouched
// until a cold Reconnect or a warm DetachSC resync repairs the pairing,
// both of which clear the detached flag.
//
// The durability layer (internal/db) adds the crash+restart action:
// RestartSC collapses the store to the versions the new incarnation
// recovered from its log, wipes all volatile SC state, and advances the
// store epoch; AttachGreeting predicts the epoch greeting a durable
// server sends on every attach; and the epoch carried on resync answers
// fences the MC (FenceMC) — a client whose adopted epoch no longer
// matches drops every warm copy instead of trusting state that predates
// the restart.
//
// Everything else is the paper's protocol verbatim, mirrored from
// client.go and server.go.
type Model struct {
	mode  Mode
	store map[string]uint64 // SC database: key -> committed version
	sc    map[string]*modelSide
	mc    map[string]*modelSide
	cache map[string]uint64 // live MC cache: present iff MC holds a copy
	// pendingRead is the key of the one outstanding remote read, "" when
	// none, and pendingID its request's id. The harness resolves each read
	// fully before starting the next, so a single slot suffices.
	pendingRead    string
	pendingID      uint64
	hasPendingRead bool
	// seq is the MC's last request id, marks its per-key marks, and since
	// seq at the last link change.
	seq, since uint64
	marks      map[string]uint64
	// scDetached is set by EvictSC: the server shed the session, so the SC
	// ignores everything from this client and propagates nothing to it
	// until Reconnect or DetachSC re-pairs them.
	scDetached bool
	// epoch is the SC store epoch (0 = in-memory store, no fencing);
	// mcEpoch is the epoch the MC has adopted (0 = not yet learned).
	epoch   uint64
	mcEpoch uint64
}

// modelSide is one side's view of a key: the copy bit and, for SW modes,
// the window, kept oldest-first. The window is deliberately a plain
// schedule slid by copying, not the implementation's core.Window: the
// model is the oracle, so it shares no window code with what it checks
// and converts only where a message carries the window.
type modelSide struct {
	hasCopy bool
	window  sched.Schedule // nil for ST modes
}

// NewModel returns the reference model for one client/server pair in the
// given mode, over an empty store.
func NewModel(mode Mode) *Model {
	return &Model{
		mode:  mode,
		store: make(map[string]uint64),
		sc:    make(map[string]*modelSide),
		mc:    make(map[string]*modelSide),
		cache: make(map[string]uint64),
		marks: make(map[string]uint64),
	}
}

func (m *Model) newSide() *modelSide {
	s := &modelSide{}
	if m.mode.Kind == core.KindSW {
		s.window = make(sched.Schedule, m.mode.K)
		for i := range s.window {
			s.window[i] = sched.Write
		}
	}
	return s
}

func (m *Model) side(views map[string]*modelSide, key string) *modelSide {
	st, ok := views[key]
	if !ok {
		st = m.newSide()
		views[key] = st
	}
	return st
}

// push slides the window by one request. No-op for ST modes.
func (s *modelSide) push(op sched.Op) {
	if s.window == nil {
		return
	}
	copy(s.window, s.window[1:])
	s.window[len(s.window)-1] = op
}

// fill resets every window slot to op. No-op for ST modes.
func (s *modelSide) fill(op sched.Op) {
	for i := range s.window {
		s.window[i] = op
	}
}

// readMajority reports whether reads strictly outnumber writes in the
// window.
func (s *modelSide) readMajority() bool {
	reads := 0
	for _, op := range s.window {
		if op == sched.Read {
			reads++
		}
	}
	return 2*reads > len(s.window)
}

func (s *modelSide) windowCopy() sched.Schedule {
	return append(sched.Schedule(nil), s.window...)
}

// StoreVersion returns the committed version of key (0 if never written).
func (m *Model) StoreVersion(key string) uint64 { return m.store[key] }

// MCHasCopy reports the MC-side copy bit for key.
func (m *Model) MCHasCopy(key string) bool { return m.side(m.mc, key).hasCopy }

// SCHasCopy reports the SC-side copy bit for key.
func (m *Model) SCHasCopy(key string) bool { return m.side(m.sc, key).hasCopy }

// CacheVersion returns the live cached version for key; ok is false when
// the MC holds no copy.
func (m *Model) CacheVersion(key string) (uint64, bool) {
	v, ok := m.cache[key]
	return v, ok
}

// MCWindow returns a copy of the MC-side window (nil for ST modes).
func (m *Model) MCWindow(key string) sched.Schedule { return m.side(m.mc, key).windowCopy() }

// SCWindow returns a copy of the SC-side window (nil for ST modes).
func (m *Model) SCWindow(key string) sched.Schedule { return m.side(m.sc, key).windowCopy() }

// PendingRead reports whether a remote read is outstanding.
func (m *Model) PendingRead() bool { return m.hasPendingRead }

// Write commits a write at the SC and returns the new version plus the
// frames the server must emit toward the client, in order.
func (m *Model) Write(key string) (uint64, []wire.Message) {
	m.store[key]++
	v := m.store[key]
	if m.scDetached {
		// The session was shed: the write commits, but there is no
		// per-session state to slide and nobody to propagate to.
		return v, nil
	}
	st := m.side(m.sc, key)
	switch m.mode.Kind {
	case core.KindST1:
		return v, nil
	case core.KindST2:
		if st.hasCopy {
			return v, []wire.Message{{Kind: wire.KindWriteProp, Key: key, Version: v}}
		}
		return v, nil
	}
	switch {
	case !st.hasCopy:
		// SC in charge: slide the window, no communication.
		st.push(sched.Write)
		return v, nil
	case m.mode.K == 1:
		// SW1 optimization: answer the write with a bare delete-request.
		st.hasCopy = false
		st.fill(sched.Write)
		return v, []wire.Message{{Kind: wire.KindDeleteReq, Key: key}}
	default:
		return v, []wire.Message{{Kind: wire.KindWriteProp, Key: key, Version: v}}
	}
}

// LocalRead attempts a local read at the MC. When the MC holds a copy it
// returns the version the read must yield and slides the window; otherwise
// ok is false and the caller must go remote via StartRead.
func (m *Model) LocalRead(key string) (version uint64, ok bool) {
	st := m.side(m.mc, key)
	if !st.hasCopy {
		return 0, false
	}
	st.push(sched.Read)
	return m.cache[key], true
}

// StartRead begins a remote read and returns the frames the client must
// emit (the control request). The read completes when DeliverToClient
// processes a ReadResp for the key, or fails when FailPendingRead is
// called (disconnection).
func (m *Model) StartRead(key string) []wire.Message {
	if m.hasPendingRead {
		panic("model: overlapping remote reads")
	}
	m.seq++
	m.pendingRead, m.pendingID, m.hasPendingRead = key, m.seq, true
	return []wire.Message{{Kind: wire.KindReadReq, Key: key, ID: m.seq}}
}

// FailPendingRead abandons the outstanding remote read (the client
// disconnected before the response arrived).
func (m *Model) FailPendingRead() {
	m.pendingRead, m.hasPendingRead = "", false
}

// DeliverToServer feeds one client->server frame to the SC state machine
// and returns the frames the server must emit in response, in order.
func (m *Model) DeliverToServer(msg wire.Message) []wire.Message {
	if m.scDetached {
		// Straggler frames from an evicted client hit a detached session:
		// the implementation ignores them all, keepalives included.
		return nil
	}
	switch msg.Kind {
	case wire.KindReadReq:
		return m.scReadReq(msg.Key, msg.ID)
	case wire.KindDeleteReq:
		m.scDeleteReq(msg)
		return nil
	case wire.KindPing:
		// Keepalives are stateless echoes, never metered.
		return []wire.Message{{Kind: wire.KindPong, Version: msg.Version}}
	default:
		return nil // server ignores server-to-client kinds
	}
}

func (m *Model) scReadReq(key string, id uint64) []wire.Message {
	st := m.side(m.sc, key)
	resp := wire.Message{Kind: wire.KindReadResp, Key: key, Version: m.store[key], ID: id}
	switch m.mode.Kind {
	case core.KindST1:
		// Never allocate.
	case core.KindST2:
		if !st.hasCopy {
			resp.Allocate = true
			st.hasCopy = true
		}
	default:
		if !st.hasCopy {
			st.push(sched.Read)
			if st.readMajority() {
				resp.Allocate = true
				resp.Window = core.WindowOf(st.window)
				st.hasCopy = true
			}
		}
	}
	return []wire.Message{resp}
}

func (m *Model) scDeleteReq(msg wire.Message) {
	st := m.side(m.sc, msg.Key)
	if !st.hasCopy {
		return // stale duplicate
	}
	st.hasCopy = false
	if m.mode.Kind == core.KindSW && msg.Window.Size() == m.mode.K {
		st.window = msg.Window.Bits()
	}
}

// DeliverToClient feeds one server->client frame to the MC state machine.
// It returns the frames the client must emit in response and, when the
// frame completes the outstanding remote read, the version that read must
// return.
func (m *Model) DeliverToClient(msg wire.Message) (emits []wire.Message, completed *uint64) {
	switch msg.Kind {
	case wire.KindReadResp:
		return nil, m.mcReadResp(msg)
	case wire.KindWriteProp:
		return m.mcWriteProp(msg), nil
	case wire.KindDeleteReq:
		m.mcDeleteReq(msg.Key)
		return nil, nil
	case wire.KindBusy:
		// The overload notice is consumed by the recovery layer (counted,
		// handed to the supervisor); the protocol state machine emits
		// nothing and changes nothing.
		return nil, nil
	case wire.KindAttachResp:
		// The server's epoch greeting: adopt an unknown epoch, fence on a
		// changed one, stay inert on a match or a duplicate. Never emits.
		m.noteEpoch(msg.Version)
		return nil, nil
	default:
		return nil, nil // client ignores client-to-server kinds
	}
}

func (m *Model) mcReadResp(msg wire.Message) (completed *uint64) {
	if msg.ID <= m.since {
		return nil
	}
	st := m.side(m.mc, msg.Key)
	// An answer completes the read only if it answers that request or a
	// later one: an older answer (a duplicate, or the answer to a read
	// that gave up) was served before the read was asked.
	asked := m.hasPendingRead && m.pendingRead == msg.Key && m.pendingID <= msg.ID
	if msg.Allocate && msg.ID > m.marks[msg.Key] && !st.hasCopy {
		st.hasCopy = true
		if m.mode.Kind == core.KindSW {
			if msg.Window.Size() == m.mode.K {
				st.window = msg.Window.Bits()
			} else {
				st.fill(sched.Read)
			}
		}
		m.cache[msg.Key] = msg.Version
	}
	if asked {
		m.pendingRead, m.hasPendingRead = "", false
		v := msg.Version
		return &v
	}
	return nil
}

func (m *Model) mcWriteProp(msg wire.Message) []wire.Message {
	st := m.side(m.mc, msg.Key)
	if !st.hasCopy {
		// The SC believes the MC is subscribed but the MC holds no copy:
		// the deallocation was lost or is still in flight. Re-assert it so
		// the SC stops paying a data message per write.
		out := wire.Message{Kind: wire.KindDeleteReq, Key: msg.Key}
		if m.mode.Kind == core.KindSW {
			out.Window = core.WindowOf(st.window)
		}
		return []wire.Message{m.deallocate(out)}
	}
	if msg.Version <= m.cache[msg.Key] {
		return nil // stale or duplicated propagation: inert
	}
	m.cache[msg.Key] = msg.Version
	if m.mode.Kind != core.KindSW {
		return nil
	}
	st.push(sched.Write)
	if st.readMajority() {
		return nil
	}
	// Write majority: deallocate and hand the window back.
	st.hasCopy = false
	delete(m.cache, msg.Key)
	return []wire.Message{m.deallocate(wire.Message{
		Kind: wire.KindDeleteReq, Key: msg.Key, Window: core.WindowOf(st.window),
	})}
}

// deallocate returns the MC's DeleteReq d after drawing it an id as its
// key's mark.
func (m *Model) deallocate(d wire.Message) wire.Message {
	m.seq++
	m.marks[d.Key] = m.seq
	return d
}

func (m *Model) mcDeleteReq(key string) {
	st := m.side(m.mc, key)
	if st.hasCopy {
		m.marks[key] = m.seq
	}
	st.hasCopy = false
	st.fill(sched.Write)
	delete(m.cache, key)
}

// Reconnect models a full disconnect/reattach cycle: the MC drops every
// copy and both sides restart from the one-copy scheme with fresh
// all-writes windows, exactly like a newly arrived client. Any outstanding
// remote read has already been failed by the disconnection.
func (m *Model) Reconnect() {
	m.mc = make(map[string]*modelSide)
	m.sc = make(map[string]*modelSide)
	m.cache = make(map[string]uint64)
	m.pendingRead, m.hasPendingRead = "", false
	m.since = m.seq
	m.scDetached = false
}

// DetachSC models the server replacing the client's session (the old one
// detached on link death): SC-side state restarts fresh while the MC
// keeps its warm copies, anticipating a resync.
func (m *Model) DetachSC() {
	m.sc = make(map[string]*modelSide)
	m.since = m.seq
	m.scDetached = false
}

// EvictSC models the server shedding this client's session under overload
// (Session.Evict): the Busy frame returned here must be sent before the
// link dies, then the SC-side state is gone and the server falls silent
// toward the client until a reconnect or warm resync re-pairs them. A
// second eviction finds no session and emits nothing (nil).
func (m *Model) EvictSC(reason string, retryMillis uint64) []wire.Message {
	if m.scDetached {
		return nil
	}
	m.scDetached = true
	m.sc = make(map[string]*modelSide)
	return []wire.Message{{Kind: wire.KindBusy, Key: reason, Version: retryMillis}}
}

// RestartSC models the stationary computer crashing and restarting: the
// durable store collapses to surviving (the per-key versions the new
// incarnation recovered from its log), all volatile SC-side state —
// per-session allocation bits, windows, detach flags — is gone, and the
// store epoch advances to epoch. The MC side is untouched: the client
// does not yet know the authority restarted and learns it only through
// the epoch carried on AttachResp and ResyncResp frames.
func (m *Model) RestartSC(surviving map[string]uint64, epoch uint64) {
	m.store = make(map[string]uint64, len(surviving))
	for k, v := range surviving {
		m.store[k] = v
	}
	m.sc = make(map[string]*modelSide)
	m.scDetached = false
	m.epoch = epoch
}

// AttachGreeting returns the frames the server must emit when a session
// attaches: the AttachResp epoch greeting for a durable store, nothing
// for an in-memory one (epoch 0) — which keeps pre-durability schedules
// byte-identical.
func (m *Model) AttachGreeting() []wire.Message {
	if m.epoch == 0 {
		return nil
	}
	return []wire.Message{{Kind: wire.KindAttachResp, Version: m.epoch}}
}

// noteEpoch folds a server-announced epoch into the MC state and reports
// whether it fenced: 0 is ignored, an unknown epoch is adopted, a
// matching epoch is inert, and a changed epoch fences (FenceMC).
func (m *Model) noteEpoch(epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	if m.mcEpoch == 0 || m.mcEpoch == epoch {
		m.mcEpoch = epoch
		return false
	}
	m.FenceMC(epoch)
	return true
}

// FenceMC models the client's epoch fence: the authority restarted, so
// every warm copy, window, and cached value is untrustworthy and dropped.
// The MC restarts from the one-copy scheme exactly like a fresh client.
func (m *Model) FenceMC(epoch uint64) {
	m.mc = make(map[string]*modelSide)
	m.cache = make(map[string]uint64)
	m.mcEpoch = epoch
}

// ResyncRequest returns the warm-resync declaration the client must emit
// on ResumeResync: every held key, sorted, with its cached version stamp,
// plus the epoch the client last adopted (0 when it never learned one) so
// the server can tell a same-incarnation blip from a resync against a
// dead epoch. nil when no copies are held — the client comes back online
// immediately and for free.
func (m *Model) ResyncRequest() *wire.Batch {
	var keys []string
	for key, st := range m.mc {
		if st.hasCopy {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	versions := make([]uint64, len(keys))
	for i, k := range keys {
		versions[i] = m.cache[k]
	}
	return &wire.Batch{Kind: wire.KindResyncReq, Epoch: m.mcEpoch, Keys: keys, Versions: versions}
}

// DeliverResyncToServer feeds a client->server batch to the SC state
// machine and returns the answer batch the server must emit (nil for
// kinds the server ignores). Declared subscriptions are re-asserted
// idempotently; entries answer NotModified when the version stamp still
// matches the store.
func (m *Model) DeliverResyncToServer(b wire.Batch) *wire.Batch {
	if b.Kind != wire.KindResyncReq || m.scDetached {
		return nil
	}
	if m.epoch != 0 && b.Epoch != 0 && b.Epoch != m.epoch {
		// The client is resyncing against a dead incarnation: its warm
		// state predates the restart, so nothing is re-asserted and the
		// answer carries only the new epoch — the client must fence.
		return &wire.Batch{Kind: wire.KindResyncResp, Epoch: m.epoch}
	}
	resp := &wire.Batch{Kind: wire.KindResyncResp, Epoch: m.epoch}
	for i, key := range b.Keys {
		st := m.side(m.sc, key)
		if m.mode.Kind != core.KindST1 {
			st.hasCopy = true
		}
		e := wire.Entry{Key: key, Version: m.store[key]}
		var hint uint64
		if i < len(b.Versions) {
			hint = b.Versions[i]
		}
		if hint == e.Version {
			e.NotModified = true
		}
		resp.Entries = append(resp.Entries, e)
	}
	return resp
}

// DeliverResyncToClient applies a server->client ResyncResp to the MC
// state machine and returns the frames the client must emit: a DeleteReq
// for every key the missed writes turned write-majority. Entries apply
// only to held keys and are version-guarded, so duplicates are inert.
func (m *Model) DeliverResyncToClient(b wire.Batch) []wire.Message {
	if b.Kind != wire.KindResyncResp {
		return nil
	}
	if m.noteEpoch(b.Epoch) {
		// The answer names a new epoch: fence. The entries (if any) speak
		// for a dead incarnation and are ignored; the client stays offline
		// with the fence latched until a cold reattach.
		return nil
	}
	var emits []wire.Message
	for _, e := range b.Entries {
		st := m.side(m.mc, e.Key)
		if !st.hasCopy || e.NotModified {
			continue
		}
		cur := m.cache[e.Key]
		if e.Version <= cur {
			continue // duplicated or reordered answer
		}
		m.cache[e.Key] = e.Version
		if m.mode.Kind != core.KindSW {
			continue
		}
		// Missed writes slide the window as if propagated one by one,
		// capped at K (older pushes would have slid out anyway).
		missed := int(e.Version - cur)
		if missed > m.mode.K {
			missed = m.mode.K
		}
		for i := 0; i < missed; i++ {
			st.push(sched.Write)
		}
		if !st.readMajority() {
			st.hasCopy = false
			delete(m.cache, e.Key)
			emits = append(emits, m.deallocate(wire.Message{
				Kind: wire.KindDeleteReq, Key: e.Key, Window: core.WindowOf(st.window),
			}))
		}
	}
	return emits
}
