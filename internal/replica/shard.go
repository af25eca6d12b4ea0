package replica

// The sharded server core. A Server owns N shards (N a power of two);
// every session is routed to exactly one shard by its attach ID, and all
// protocol state the session ever accumulates — its per-key windows and
// copy bits — lives on that shard. Each shard serializes its events with
// a single-writer token (see shard.enter), so the read/write/propagation
// hot path never takes a cross-shard lock: a frame from a client touches
// only the owning shard, and a write fans out shard by shard through each
// shard's key index without ever holding two shards at once.
//
// DESIGN.md §12 documents the model; shard_test.go pins the routing
// functions and the ownership invariant.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mobirep/internal/obs"
)

// maxShards bounds the automatic shard count; explicit counts may go
// higher but stay power-of-two.
const maxShards = 1024

// spareRecords bounds what a shard keeps of departed sessions: at most
// this many states and emptied slot lists, and one session map of at most
// this many entries. A kept slot list has room for at most spareSlotCap
// holders, so a hot key's long list is left to the GC. With these bounds
// a shard keeps under 1 MiB for reuse.
//
// spareRequestKeys bounds the relay read records a shard keeps
// (takeRequest), counted in keys: about 128 bytes each, so a shard keeps
// under 128 KiB of them, and a 256-key resync still finds its record.
const (
	spareRecords     = 4096
	spareSlotCap     = 4
	spareRequestKeys = 1024
)

// shard owns a disjoint subset of the server's sessions and, through
// them, all per-(session,key) protocol state. Fields below mu are
// guarded by the shard's single-writer token.
type shard struct {
	id int

	// mu is the shard's single-writer token: exactly one event — a
	// received frame, an attach/detach, a reaper scan, or a write
	// fan-out classifying this shard's subscribers — runs against the
	// shard's state at a time. Events are run to completion on the
	// submitting goroutine (enter/exit) rather than shipped to a
	// dedicated loop goroutine: same serialization guarantee, no
	// channel hop or closure allocation on the hot path, and frame
	// handling stays synchronous (which the conformance harness's
	// lock-step delivery depends on).
	mu       sync.Mutex
	sessions map[*Session]struct{}
	// index maps each key to the (session, state) pairs on this shard
	// holding protocol state for it, in subscribe order. Write fan-out
	// walks index[key] instead of every session: a session with no state
	// for the key is a no-op in every mode (see Server.propagate), so
	// skipping it is behavior-identical and turns a million-session write
	// into a walk of just the key's subscribers. Each slot carries the
	// state handle, so the walk probes no per-session map, and the state
	// remembers its slot (itemState.idx), so leaving is a swap-remove.
	index map[string][]sub

	// What departed sessions left for the next ones to reuse
	// (unsubscribeAll keeps, newState, subscribe and Session.state take):
	// states, emptied slot lists, and one emptied session map. Each is
	// bounded by spareRecords, whatever the shard's peak was.
	spareStates []*itemState
	spareSlots  [][]sub
	spareItems  map[string]*itemState
	// The relay read records its sessions' finished requests left, and
	// the keys they have room for.
	spareRequests    []*request
	spareRequestRoom int

	// fanMu serializes write fan-out through this shard so the scratch
	// slice below can be reused allocation-free. It is taken before the
	// writer token and never from inside it, and only one shard's fanMu
	// is ever held at a time.
	fanMu sync.Mutex
	fan   []fanEntry

	// depth gauges events queued or running on this shard (the writer
	// token's queue depth); occupancy gauges attached sessions.
	depth     *obs.Gauge
	occupancy *obs.Gauge

	// mem tracks the shard's accounted session-state bytes (session base
	// cost plus per-(session,key) window state; a link's queued outbox
	// bytes are sampled on top at budget checks — see Server.MemBytes).
	// memGauge mirrors it for /metrics.
	mem      atomic.Int64
	memGauge *obs.Gauge
}

// fanEntry is a session whose send turn a fan-out took, and the shared
// frame it posted there.
type fanEntry struct {
	sess  *Session
	frame []byte
}

func newShard(id int) *shard {
	return &shard{
		id:       id,
		sessions: make(map[*Session]struct{}),
		index:    make(map[string][]sub),
		depth: obsReg.Gauge(fmt.Sprintf(`mobirep_replica_shard_queue_depth{shard="%d"}`, id),
			"Events queued or running per shard (single-writer token contention)."),
		occupancy: obsReg.Gauge(fmt.Sprintf(`mobirep_replica_shard_sessions{shard="%d"}`, id),
			"Currently attached sessions per shard."),
		memGauge: obsReg.Gauge(fmt.Sprintf(`mobirep_replica_shard_mem_bytes{shard="%d"}`, id),
			"Accounted session-state bytes per shard (base cost plus window state)."),
	}
}

// addMem moves the shard's memory account by delta bytes, mirroring into
// the per-shard gauge. Safe under or outside the writer token.
func (sh *shard) addMem(delta int64) {
	sh.mem.Add(delta)
	sh.memGauge.Add(delta)
}

// enter begins one event on the shard: the caller holds the single-writer
// token until exit and may touch any state the shard owns. The depth
// gauge brackets the wait, so a contended shard shows depth > 1.
func (sh *shard) enter() {
	sh.depth.Add(1)
	sh.mu.Lock()
}

func (sh *shard) exit() {
	sh.mu.Unlock()
	sh.depth.Add(-1)
}

// sub is one slot of the key index: a session and its state for the key.
type sub struct {
	sess *Session
	st   *itemState
}

// subscribe records that sess holds state st for key, remembering the
// slot in st.idx. A key new to the index takes a slot list a departed
// session emptied, if the shard kept one. Caller holds the writer token;
// key must not alias a borrowed frame.
func (sh *shard) subscribe(key string, sess *Session, st *itemState) {
	subs := sh.index[key]
	if n := len(sh.spareSlots) - 1; subs == nil && n >= 0 {
		subs = sh.spareSlots[n]
		sh.spareSlots[n] = nil
		sh.spareSlots = sh.spareSlots[:n]
	}
	st.idx = uint32(len(subs))
	sh.index[key] = append(subs, sub{sess, st})
}

// newState returns mode's fresh state, reusing one a departed session
// left if the shard kept any. Caller holds the writer token.
func (sh *shard) newState(mode Mode) *itemState {
	n := len(sh.spareStates) - 1
	if n < 0 {
		return newItemState(mode)
	}
	st := sh.spareStates[n]
	sh.spareStates[n] = nil
	sh.spareStates = sh.spareStates[:n]
	st.reset(mode)
	return st
}

// takeRequest returns a relay read record a finished request left, or a
// new one. Caller holds the writer token.
func (sh *shard) takeRequest() *request {
	n := len(sh.spareRequests) - 1
	if n < 0 {
		return new(request)
	}
	r := sh.spareRequests[n]
	sh.spareRequests[n] = nil
	sh.spareRequests = sh.spareRequests[:n]
	sh.spareRequestRoom -= cap(r.ws)
	return r
}

// keepRequest empties r, a finished relay read record (nil for none), and
// keeps it for the next request while the kept records have room for at
// most spareRequestKeys keys; its arrays hold on to their last keys until
// the next request overwrites them. Caller holds the writer token.
func (sh *shard) keepRequest(r *request) {
	if r == nil || sh.spareRequestRoom+cap(r.ws) > spareRequestKeys {
		return
	}
	r.ws, r.ss, r.b.Keys, r.b.Versions = r.ws[:0], nil, r.b.Keys[:0], r.b.Versions[:0]
	if r.failed.Load() {
		r.failed.Store(false)
	}
	sh.spareRequests = append(sh.spareRequests, r)
	sh.spareRequestRoom += cap(r.ws)
}

// unsubscribeAll removes sess from every key index entry it occupies:
// the last slot moves into the vacated one. States the session never
// subscribed (a straggler frame after detach) name no slot of theirs.
// The session's states, the slot lists it emptied and its map, emptied,
// are kept for reuse up to the bounds, and the session is left with no
// map. Caller holds the writer token.
func (sh *shard) unsubscribeAll(sess *Session) {
	for key, st := range sess.items {
		if len(sh.spareStates) < spareRecords {
			sh.spareStates = append(sh.spareStates, st)
		}
		subs := sh.index[key]
		i, last := int(st.idx), len(subs)-1
		if i > last || subs[i].st != st {
			continue
		}
		subs[i] = subs[last]
		subs[i].st.idx = uint32(i)
		subs[last] = sub{}
		if last > 0 {
			sh.index[key] = subs[:last]
			continue
		}
		delete(sh.index, key)
		if cap(subs) <= spareSlotCap && len(sh.spareSlots) < spareRecords {
			sh.spareSlots = append(sh.spareSlots, subs[:0])
		}
	}
	if sh.spareItems == nil && len(sess.items) <= spareRecords {
		clear(sess.items)
		sh.spareItems = sess.items
	}
	sess.items = nil
}

// sessionShard routes an attach ID to one of n shards (n a power of
// two). The finalizer is splitmix64's: attach IDs are sequential, so the
// low bits must be fully mixed before masking. Pure function of (id, n)
// — routing is stable across restarts by construction.
func sessionShard(id uint64, n int) int {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & uint64(n-1))
}

// keyShard routes a key to one of n shards (n a power of two): FNV-1a
// over the bytes, then the same splitmix64 finalizer so short keys with
// shared prefixes still spread. Pure function of (key, n).
//
// Note the ownership model deliberately does NOT place per-(session,key)
// state by keyShard: that state lives with its session (sessionShard), so
// a session and every key it holds windows for are always on one shard —
// the invariant shard_test.go exercises. keyShard exists for state keyed
// by key alone (load spreading, future per-key placement work).
func keyShard(key string, n int) int {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h & uint64(n-1))
}

// defaultShardCount is the automatic shard count: the next power of two
// at or above GOMAXPROCS, capped at maxShards.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// validShardCount reports whether n is an acceptable explicit shard
// count: a power of two between 1 and 4096.
func validShardCount(n int) bool {
	return n >= 1 && n <= 4096 && n&(n-1) == 0
}
