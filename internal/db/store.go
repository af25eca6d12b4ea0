// Package db implements the stationary computer's online database: a
// versioned in-memory key-value store with an optional append-only
// persistence log.
//
// The paper assumes "some node in the stationary network" holds the
// authoritative copy of every data item and can propagate updates to
// subscribed mobile computers. This package is that substrate: the replica
// protocol (internal/replica) stores items here, keeps its own record of
// which mobile computer holds a copy, and relies on versions to keep
// propagation idempotent. Durability uses a CRC-checked record log
// (log.go) that is replayed on open, in the spirit of a write-ahead log;
// the store is usable fully in memory as well.
//
// # Durability contract
//
// Every Put on a persistent store takes one path: it frames its record
// into the group buffer, and the leader of the next round writes the
// whole buffer to the file at once (group commit). A Put's effects
// become visible — to its caller AND to concurrent readers — only once
// its round has landed. The sync policy decides what landing means:
//
//   - SyncGroup: the round's write is fsynced before anything it covers
//     is acknowledged, so nothing a reader can observe is ever lost to a
//     crash.
//   - SyncNever: the round's write reaches the OS but is never explicitly
//     fsynced until Close. Fast; a power cut loses the un-synced suffix.
//     For simulations and caches only.
//
// Under SyncGroup an acknowledged Put survives any crash;
// replay after restart never rolls an acknowledged version back. A
// failed sync fails the Puts that depended on it and marks the store
// failed: reads keep working from the last consistent state, further
// writes are refused (fail closed) rather than risking silent loss.
//
// Every open of a persistent store durably bumps a monotonic epoch kept
// in the checksummed log header. The replica layer hands the epoch to
// clients so they can fence against a restarted authority.
package db

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Item is one versioned value.
type Item struct {
	// Key identifies the data item, the paper's "x".
	Key string
	// Value is the current payload.
	Value []byte
	// Version increases by one on every write; version 0 means the item
	// has never been written.
	Version uint64
}

// record is a key's entry: the visible item, whose value is the key's one
// resident buffer, and whether Get has lent it out (then no write may).
type record struct {
	Item
	lent atomic.Bool
}

// SyncPolicy selects when a Put's log record reaches stable storage.
type SyncPolicy int

const (
	// SyncGroup batches concurrent Puts into one fsync; acknowledgement
	// and visibility wait for it. The default for persistent stores.
	SyncGroup SyncPolicy = iota
	// SyncNever leaves fsync to Close; a crash loses the un-synced tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "group" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("db: unknown sync policy %q (want group or never)", s)
}

// ErrFailed wraps the first sync or append error after which the store
// refuses writes. Reads still serve the last consistent state.
var ErrFailed = errors.New("db: store failed")

// Options configures OpenWith.
type Options struct {
	// Path locates the append-only log file.
	Path string
	// Sync is the durability policy; the zero value is SyncGroup.
	Sync SyncPolicy
	// Deprecated: GroupInterval is ignored. Every round batches
	// naturally: whatever queued behind the previous round forms the next.
	GroupInterval time.Duration
	// FS is the filesystem; nil means the real one. Tests inject
	// CrashFS or fault wrappers here.
	FS FS
}

// groupState is the group-commit machinery. Puts never touch the log
// file: they frame their record into buf (a batch of the on-disk byte
// stream) and queue the entry; the leader of each round drains the whole
// buffer with one file write and one fsync. Offsets are logical: byte
// positions in the record stream, equal to the file offset once the
// bytes are written.
type groupState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []groupEntry
	buf     []byte // framed records not yet written to the file
	tail    int64  // logical end offset of the last buffered record
	synced  int64  // logical offset landed: written, and fsynced under SyncGroup
	applied int64  // logical offset whose entries are visible in items
	leading bool   // a leader is between fsyncs
	err     error  // sticky: first sync failure

	// gen numbers the coordinate space of tail/synced/applied. Compact
	// bumps it whenever it swaps the log file and resets the offsets:
	// every offset captured before the bump belongs to the *old* log and
	// must never be compared with — or folded into — the new offsets. A
	// gen bump implies Compact first drained and applied everything
	// queued, so a waiter holding a stale gen is already satisfied, and a
	// leader holding one must discard its round (the pinned old handle is
	// closed and its tail is meaningless in the new space).
	gen uint64

	// wmu serializes the write-the-batch-then-fsync step between leader
	// rounds and Close/Compact drains. Neither mu nor the store lock is
	// held while the round is at the disk, so Puts keep buffering under a
	// running fsync. werr is wmu-protected and sticky: after one torn
	// batch write nothing more may reach the file, or later records would
	// sit beyond the tear, unreachable by replay yet acknowledged.
	wmu  sync.Mutex
	werr error
	// spare is the buffer the last round wrote, emptied, which the next
	// round hands to the Puts in place of the one it takes — so a steady
	// stream of rounds frames records into two buffers that never grow
	// again. wmu-protected; one past maxSpareBatch is dropped instead.
	spare []byte

	// free holds value buffers for queued entries (a record must not see
	// them before their round lands), refilled by apply. mu-protected.
	free [][]byte
}

// maxSpareBatch caps the capacity of a recycled group buffer, so one
// burst of large records does not pin its buffer for the life of the
// store. The value free list keeps at most maxFreeValues buffers of at
// most maxSpareBatch/maxFreeValues bytes: as much again.
const maxSpareBatch, maxFreeValues = 1 << 20, 64

type groupEntry struct {
	item Item  // Value is owned: the record adopts it at apply
	end  int64 // logical offset at which this record ends
}

// Store is a thread-safe versioned key-value store.
type Store struct {
	mu    sync.RWMutex
	items map[string]*record
	log   *Log // nil when running purely in memory

	policy SyncPolicy
	epoch  uint64
	failed error // sticky write-path failure; store is fail-closed

	gc groupState
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	s := &Store{items: make(map[string]*record)}
	s.gc.cond = sync.NewCond(&s.gc.mu)
	return s
}

// Open returns a store backed by the append-only log at path with the
// default durability policy (SyncGroup, natural batching), replaying
// any existing records into memory first and durably bumping the store
// epoch.
func Open(path string) (*Store, error) {
	return OpenWith(Options{Path: path})
}

// OpenWith opens a persistent store with explicit options.
func OpenWith(o Options) (*Store, error) {
	if o.FS == nil {
		o.FS = OSFS()
	}
	s := NewStore()
	s.policy = o.Sync
	log, err := OpenLogFS(o.FS, o.Path)
	if err != nil {
		return nil, err
	}
	if err := log.Replay(func(rec Record) {
		s.commitLocked(Item(rec), true) // nothing else can see s yet
	}); err != nil {
		log.Close()
		return nil, err
	}
	// Bump the epoch durably before any write can be acknowledged under
	// it: each process incarnation owns a distinct epoch.
	if err := log.SetEpoch(log.Epoch() + 1); err != nil {
		log.Close()
		return nil, err
	}
	s.log = log
	s.epoch = log.Epoch()
	s.gc.synced = log.healthy
	s.gc.applied = log.healthy
	s.gc.tail = log.healthy
	mEpoch.Set(int64(s.epoch))
	return s, nil
}

// Epoch returns the store's persistent epoch: a counter durably bumped
// on every Open. In-memory stores report 0, meaning "no epoch" — the
// replica layer treats that as fencing disabled.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// SyncPolicyInUse reports the policy the store was opened with.
func (s *Store) SyncPolicyInUse() SyncPolicy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.policy
}

// Close drains pending group commits and releases the persistence log,
// if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	s.drainLocked()
	err := s.log.Close()
	s.log = nil
	if s.failed != nil && err == nil {
		err = s.failed
	}
	return err
}

// Get returns the current item for key. The value slice is lent: neither
// the caller nor the store may modify it, so the key's next write copies
// into a fresh buffer. The second result reports whether the key has ever
// been written. On a persistent store, "current" means the newest landed
// version: an in-flight Put is invisible until its round lands.
func (s *Store) Get(key string) (Item, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.items[key]; r != nil {
		r.lent.Store(true)
		return r.Item, true
	}
	return Item{}, false
}

// Key returns the store's own copy of key, which a caller may retain in
// place of a borrowed one, and whether the key has ever been written.
func (s *Store) Key(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.items[key]; r != nil {
		return r.Key, true
	}
	return "", false
}

// GetCopy is Get without the loan: it appends key's value to dst, under
// the read lock, and returns the item with Value set to the extended dst.
func (s *Store) GetCopy(key string, dst []byte) (Item, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.items[key]; r != nil {
		return Item{Key: r.Key, Value: append(dst, r.Value...), Version: r.Version}, true
	}
	return Item{Value: dst}, false
}

// Put commits a new version of key and returns the committed item, whose
// Value is the caller's value slice: the store keeps its own copy. With a
// persistent log, Put returns only once the record is durable per the
// store's sync policy; see the package durability contract.
func (s *Store) Put(key string, value []byte) (Item, error) {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return Item{}, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	it := Item{Key: key, Value: value, Version: 1}
	if r := s.items[key]; r != nil {
		it.Version = r.Version + 1
	}
	if s.log == nil {
		s.commitLocked(it, false)
		s.mu.Unlock()
		return it, nil
	}

	// Frame the record into the group buffer — no file I/O on the Put
	// path, so appends never stall behind an in-flight round — enqueue,
	// release the store lock, then ride the group committer until the
	// round holding this record has landed and its entry has been applied
	// in commit order. Pending group entries for this key hold versions
	// newer than s.items; the chain must continue from the newest
	// assigned one.
	log := s.log
	s.gc.mu.Lock()
	gen := s.gc.gen
	for i := len(s.gc.queue) - 1; i >= 0; i-- {
		if s.gc.queue[i].item.Key == key {
			it.Version = s.gc.queue[i].item.Version + 1
			break
		}
	}
	before := len(s.gc.buf)
	s.gc.buf = appendFramedRecord(s.gc.buf, Record{Key: key, Value: value, Version: it.Version})
	s.gc.tail += int64(len(s.gc.buf) - before)
	end := s.gc.tail
	var own []byte
	if n := len(s.gc.free); n > 0 {
		own, s.gc.free = s.gc.free[n-1], s.gc.free[:n-1]
	}
	s.gc.queue = append(s.gc.queue, groupEntry{Item{key, append(own[:0], value...), it.Version}, end})
	s.gc.mu.Unlock()
	s.mu.Unlock()
	if err := s.waitGroup(log, gen, end); err != nil {
		return Item{}, err
	}
	return it, nil
}

// Install adopts an item replicated from an upstream authority, keeping
// its version instead of assigning a new one: this is how a relay
// station's mirror store absorbs values fetched or propagated from its
// parent. The install is version-guarded — an item at or below the
// current version is a no-op (false) so duplicated or reordered
// deliveries are inert — and in-memory only: a log-backed store owns its
// version chain and refuses with an error rather than splice foreign
// versions into it. The value is copied, as by Put; the key is retained
// (callers holding borrowed transport memory must clone it first).
func (s *Store) Install(it Item) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return false, fmt.Errorf("db: Install on a log-backed store (it owns its version chain)")
	}
	if r := s.items[it.Key]; r != nil && it.Version <= r.Version {
		return false, nil
	}
	s.commitLocked(it, false)
	return true, nil
}

// commitLocked makes it visible, under s.mu; every commit goes through it.
// The value is copied over the key's resident buffer when that is not lent
// and large enough, into a fresh one otherwise. With own, the record adopts
// it.Value itself and the displaced buffer is returned unless it was lent.
func (s *Store) commitLocked(it Item, own bool) (displaced []byte) {
	r := s.items[it.Key]
	if r == nil {
		r = &record{Item: Item{Key: it.Key}}
		s.items[it.Key] = r
	}
	old, lent := r.Value, r.lent.Load()
	switch {
	case own:
		r.Value = it.Value
	case !lent && len(it.Value) > 0 && len(it.Value) <= cap(old):
		r.Value = append(old[:0], it.Value...)
	default:
		r.Value = append([]byte(nil), it.Value...)
	}
	r.Version = it.Version
	r.lent.Store(false)
	if own && !lent {
		return old
	}
	return nil
}

// failLocked records the first write-path failure; the store is
// fail-closed from here. Group waiters are woken with the error.
func (s *Store) failLocked(err error) {
	if s.failed == nil {
		s.failed = err
		mSyncFailures.Inc()
	}
	s.gc.mu.Lock()
	if s.gc.err == nil {
		s.gc.err = err
	}
	s.gc.cond.Broadcast()
	s.gc.mu.Unlock()
}

// waitGroup blocks until the log has landed and is applied through end,
// an offset in generation gen's coordinate space. The first waiter that
// finds no leader becomes one: it lets the queue settle, writes the
// buffer (fsyncing under SyncGroup), and then applies every covered
// entry in commit order.
func (s *Store) waitGroup(log *Log, gen uint64, end int64) error {
	s.gc.mu.Lock()
	for {
		// Success is checked before the sticky error: an entry that is
		// already durable and applied acks success even if a *later*
		// round's sync failed. A generation change also means success —
		// Compact drained and applied everything queued (this entry
		// included) before it swapped logs and bumped gen, and end is an
		// offset in the old log's coordinates, not comparable to applied.
		if s.gc.gen != gen || s.gc.applied >= end {
			s.gc.mu.Unlock()
			return nil
		}
		if s.gc.err != nil {
			err := s.gc.err
			s.gc.mu.Unlock()
			return fmt.Errorf("%w: sync: %v", ErrFailed, err)
		}
		if !s.gc.leading {
			s.gc.leading = true
			s.gc.mu.Unlock()
			s.leadCommit(log, gen)
			s.gc.mu.Lock()
			continue
		}
		s.gc.cond.Wait()
	}
}

// writeBatch drains the group buffer to the file with one write and,
// under SyncGroup, one fsync, serialized by gc.wmu. It returns the
// logical tail the round has landed; with an empty buffer the tail has
// already landed (whichever round grabbed those bytes wrote them before
// releasing wmu) and no I/O happens.
//
// stale reports that Compact swapped the log since this round's gen was
// captured: the pinned handle is closed and any buffered records belong
// to the new log, so the round must not touch the file or the buffer.
// The check is sound because it happens under wmu: while a live round
// holds wmu with undrained entries, Compact's own drain blocks on wmu,
// so gen cannot advance mid-write.
func (s *Store) writeBatch(log *Log, gen uint64) (tail int64, stale bool, err error) {
	s.gc.wmu.Lock()
	defer s.gc.wmu.Unlock()
	if s.gc.werr != nil {
		return 0, false, s.gc.werr
	}
	s.gc.mu.Lock()
	if s.gc.gen != gen {
		s.gc.mu.Unlock()
		return 0, true, nil
	}
	buf := s.gc.buf
	tail = s.gc.tail
	if len(buf) > 0 {
		s.gc.buf, s.gc.spare = s.gc.spare[:0], nil
	}
	s.gc.mu.Unlock()
	if len(buf) == 0 {
		return tail, false, nil
	}
	if err := log.AppendFramed(buf); err != nil {
		s.gc.werr = err
		return 0, false, err
	}
	if s.policy == SyncGroup {
		if err := log.fsync(); err != nil {
			s.gc.werr = err
			return 0, false, err
		}
		mFsyncs.Inc()
	}
	if cap(buf) <= maxSpareBatch {
		s.gc.spare = buf[:0]
	}
	return tail, false, nil
}

// applyLocked commits every queued entry the landed offset now covers,
// in commit order. The caller holds both s.mu and gc.mu.
func (s *Store) applyLocked() {
	n := 0
	for ; n < len(s.gc.queue) && s.gc.queue[n].end <= s.gc.synced; n++ {
		b := s.commitLocked(s.gc.queue[n].item, true)
		if cap(b) > 0 && cap(b) <= maxSpareBatch/maxFreeValues && len(s.gc.free) < maxFreeValues {
			s.gc.free = append(s.gc.free, b)
		}
	}
	if n > 0 {
		mGroupCommits.Inc()
		mGroupRecords.Add(uint64(n))
		rest := copy(s.gc.queue, s.gc.queue[n:])
		clear(s.gc.queue[rest:]) // the applied values belong to records now
		s.gc.queue = s.gc.queue[:rest]
	}
	if s.gc.applied < s.gc.synced {
		s.gc.applied = s.gc.synced
	}
}

// leadCommit runs one group-commit round as leader: let the queue
// settle, land the whole buffer, then apply every covered entry. The log
// handle is pinned by the caller so a concurrent Close cannot pull it
// away mid-round; a write on a closed file fails loudly and fails the
// round. gen fences the round against Compact: if the generation moves,
// the round's work was taken over by Compact's drain and its offsets are
// from a dead coordinate space.
func (s *Store) leadCommit(log *Log, gen uint64) {
	// Natural batching: the waiters of the previous round have just been
	// woken and are about to re-enqueue. Yield until the queue stops
	// growing so the round grabs the whole herd, not the two or three
	// writers the scheduler happened to run first — on a loaded scheduler
	// each yield runs every runnable goroutine once, so the loop settles
	// in a handful of iterations and costs no timer.
	prev := -1
	for i := 0; i < 64; i++ {
		s.gc.mu.Lock()
		n := len(s.gc.queue)
		s.gc.mu.Unlock()
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}
	tail, stale, err := s.writeBatch(log, gen)
	s.mu.Lock()
	s.gc.mu.Lock()
	s.gc.leading = false
	// A Compact may have slipped in between writeBatch releasing wmu and
	// this lock acquisition (or, when stale, before the round started).
	// Its drain already folded and applied this round's records; folding
	// the pre-compaction tail here would inflate synced/applied past the
	// real end of the *new* file and acknowledge future Puts that were
	// never written. Fold only if the coordinate space is still ours.
	if stale || s.gc.gen != gen {
		tail = 0
	}
	s.gc.mu.Unlock()
	s.foldRound(tail, err)
	s.mu.Unlock()
}

// drainLocked force-completes the group pipeline; the caller holds
// s.mu, so no new appends can race in. Used by Close and Compact.
func (s *Store) drainLocked() {
	if s.log == nil {
		return
	}
	s.gc.mu.Lock()
	gen := s.gc.gen
	idle := s.gc.err != nil || len(s.gc.buf) == 0 && len(s.gc.queue) == 0 && s.gc.applied >= s.gc.tail
	s.gc.mu.Unlock()
	if idle {
		return
	}
	// gen only moves under s.mu, which the caller holds: never stale.
	tail, _, err := s.writeBatch(s.log, gen)
	s.foldRound(tail, err)
}

// foldRound ends a writeBatch round under s.mu: a failure fails the
// store; a success marks the log landed through tail and applies every
// entry that covers. Either way the waiters are woken.
func (s *Store) foldRound(tail int64, err error) {
	if err != nil {
		s.failLocked(err)
		return
	}
	s.gc.mu.Lock()
	if tail > s.gc.synced {
		s.gc.synced = tail
	}
	s.applyLocked()
	s.gc.cond.Broadcast()
	s.gc.mu.Unlock()
}

// Len returns the number of distinct keys ever written.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

// Keys returns all keys, in unspecified order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.items))
	for k := range s.items {
		out = append(out, k)
	}
	return out
}
