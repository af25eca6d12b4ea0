// Package db implements the stationary computer's online database: a
// versioned in-memory key-value store with update subscriptions and an
// optional append-only persistence log.
//
// The paper assumes "some node in the stationary network" holds the
// authoritative copy of every data item and can propagate updates to
// subscribed mobile computers. This package is that substrate: the replica
// protocol (internal/replica) stores items here, registers a subscription
// per allocated mobile copy, and relies on versions to keep propagation
// idempotent. Durability uses a CRC-checked record log (log.go) that is
// replayed on open, in the spirit of a write-ahead log; the store is
// usable fully in memory as well.
//
// # Durability contract
//
// A persistent store opens with one of three sync policies:
//
//   - SyncAlways: every Put fsyncs its own record before committing it
//     to memory and returning. Strongest, slowest.
//   - SyncGroup: concurrent Puts are batched into one fsync (group
//     commit). A Put's effects become visible — to its caller AND to
//     concurrent readers — only after the fsync covering its record
//     returns, so nothing a reader can observe is ever lost to a crash.
//     GroupInterval bounds how long the committer waits to grow a batch.
//   - SyncNever: records reach the OS on every Put but are never
//     explicitly fsynced until Close. Fast; a power cut loses the
//     un-synced suffix. For simulations and caches only.
//
// Under SyncAlways and SyncGroup an acknowledged Put survives any crash;
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

// Subscriber receives every committed update of a key, in commit order.
// Callbacks run synchronously under the store's write path; subscribers
// must not call back into the store.
type Subscriber func(Item)

// SyncPolicy selects when a Put's log record reaches stable storage.
type SyncPolicy int

const (
	// SyncGroup batches concurrent Puts into one fsync; acknowledgement
	// and visibility wait for it. The default for persistent stores.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs each Put individually before it commits.
	SyncAlways
	// SyncNever leaves fsync to Close; a crash loses the un-synced tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "always", "group" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("db: unknown sync policy %q (want always, group or never)", s)
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
	// GroupInterval bounds how long a group-commit leader waits to
	// accumulate a batch before fsyncing. 0 means natural batching: the
	// leader fsyncs immediately and whatever queued behind the previous
	// fsync forms the next batch.
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
	synced  int64  // logical offset durable on disk
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
}

type groupEntry struct {
	item Item
	end  int64 // logical offset at which this record ends
}

// Store is a thread-safe versioned key-value store.
type Store struct {
	mu    sync.RWMutex
	items map[string]Item
	subs  map[string]map[int]Subscriber
	nextS int
	log   *Log // nil when running purely in memory

	policy   SyncPolicy
	interval time.Duration
	epoch    uint64
	failed   error // sticky write-path failure; store is fail-closed

	gc groupState
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	s := &Store{
		items: make(map[string]Item),
		subs:  make(map[string]map[int]Subscriber),
	}
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
	s.interval = o.GroupInterval
	log, err := OpenLogFS(o.FS, o.Path)
	if err != nil {
		return nil, err
	}
	if err := log.Replay(func(rec Record) {
		s.items[rec.Key] = Item{Key: rec.Key, Value: rec.Value, Version: rec.Version}
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

// Get returns the current item for key. The returned value slice must not
// be modified by the caller. The second result reports whether the key has
// ever been written. Under SyncGroup, "current" means the newest durable
// version: an in-flight Put is invisible until its fsync lands.
func (s *Store) Get(key string) (Item, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, ok := s.items[key]
	return it, ok
}

// Put commits a new version of key and notifies subscribers. It returns
// the committed item. With a persistent log, Put returns only once the
// record is durable per the store's sync policy; see the package
// durability contract.
func (s *Store) Put(key string, value []byte) (Item, error) {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return Item{}, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	it := s.items[key]
	it.Key = key
	it.Value = append([]byte(nil), value...)
	it.Version++
	if s.log == nil {
		s.commitLocked(it)
		s.mu.Unlock()
		return it, nil
	}

	// SyncGroup: frame the record into the group buffer — no file I/O on
	// the Put path, so appends never stall behind an in-flight fsync —
	// enqueue, release the store lock, then ride the group committer
	// until the batch holding this record is on disk and its entry has
	// been applied in commit order. Pending group entries for this key
	// hold versions newer than s.items; the chain must continue from the
	// newest assigned one.
	if s.policy == SyncGroup {
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
		s.gc.buf = appendFramedRecord(s.gc.buf, Record{Key: key, Value: it.Value, Version: it.Version})
		s.gc.tail += int64(len(s.gc.buf) - before)
		end := s.gc.tail
		s.gc.queue = append(s.gc.queue, groupEntry{item: it, end: end})
		s.gc.mu.Unlock()
		s.mu.Unlock()
		if err := s.waitGroup(log, gen, end); err != nil {
			return Item{}, err
		}
		return it, nil
	}

	if err := s.log.Append(Record{Key: key, Value: it.Value, Version: it.Version}); err != nil {
		s.failLocked(err)
		s.mu.Unlock()
		return Item{}, fmt.Errorf("%w: append: %v", ErrFailed, err)
	}
	if s.policy == SyncAlways {
		if err := s.log.Sync(); err != nil {
			s.failLocked(err)
			s.mu.Unlock()
			return Item{}, fmt.Errorf("%w: sync: %v", ErrFailed, err)
		}
		mFsyncs.Inc()
	}
	s.commitLocked(it)
	s.mu.Unlock()
	return it, nil
}

// Install adopts an item replicated from an upstream authority, keeping
// its version instead of assigning a new one: this is how a relay
// station's mirror store absorbs values fetched or propagated from its
// parent. The install is version-guarded — an item at or below the
// current version is a no-op (false) so duplicated or reordered
// deliveries are inert — and in-memory only: a log-backed store owns its
// version chain and refuses with an error rather than splice foreign
// versions into it. The value is copied; the key is retained (callers
// holding borrowed transport memory must clone it first).
func (s *Store) Install(it Item) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return false, fmt.Errorf("db: Install on a log-backed store (it owns its version chain)")
	}
	if cur, ok := s.items[it.Key]; ok && it.Version <= cur.Version {
		return false, nil
	}
	it.Value = append([]byte(nil), it.Value...)
	s.commitLocked(it)
	return true, nil
}

// commitLocked makes it visible and notifies subscribers; the caller
// holds s.mu.
func (s *Store) commitLocked(it Item) {
	s.items[it.Key] = it
	for _, fn := range s.subs[it.Key] {
		fn(it)
	}
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

// waitGroup blocks until the log is durable and applied through end, an
// offset in generation gen's coordinate space. The first waiter that
// finds no leader becomes one: it optionally sleeps the batching
// interval, snapshots the appended offset, fsyncs, and then applies
// every covered entry in commit order.
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

// writeBatch drains the group buffer to the file with one write and one
// fsync, serialized by gc.wmu. It returns the logical tail the round
// guarantees durable and whether an fsync actually ran; with an empty
// buffer the tail is already durable (whichever round grabbed those
// bytes wrote and fsynced them before releasing wmu) and no I/O happens.
//
// stale reports that Compact swapped the log since this round's gen was
// captured: the pinned handle is closed and any buffered records belong
// to the new log, so the round must not touch the file or the buffer.
// The check is sound because it happens under wmu: while a live round
// holds wmu with undrained entries, Compact's own drain blocks on wmu,
// so gen cannot advance mid-write.
func (s *Store) writeBatch(log *Log, gen uint64) (tail int64, wrote, stale bool, err error) {
	s.gc.wmu.Lock()
	defer s.gc.wmu.Unlock()
	if s.gc.werr != nil {
		return 0, false, false, s.gc.werr
	}
	s.gc.mu.Lock()
	if s.gc.gen != gen {
		s.gc.mu.Unlock()
		return 0, false, true, nil
	}
	buf := s.gc.buf
	tail = s.gc.tail
	s.gc.buf = nil
	s.gc.mu.Unlock()
	if len(buf) == 0 {
		return tail, false, false, nil
	}
	if err := log.AppendFramed(buf); err != nil {
		s.gc.werr = err
		return 0, false, false, err
	}
	if err := log.fsync(); err != nil {
		s.gc.werr = err
		return 0, false, false, err
	}
	return tail, true, false, nil
}

// applyLocked commits every queued entry the durable offset now covers,
// in commit order. The caller holds both s.mu and gc.mu.
func (s *Store) applyLocked() {
	n := 0
	for n < len(s.gc.queue) && s.gc.queue[n].end <= s.gc.synced {
		s.commitLocked(s.gc.queue[n].item)
		n++
	}
	if n > 0 {
		mGroupCommits.Inc()
		mGroupRecords.Add(uint64(n))
		s.gc.queue = append(s.gc.queue[:0], s.gc.queue[n:]...)
	}
	if s.gc.applied < s.gc.synced {
		s.gc.applied = s.gc.synced
	}
}

// leadCommit runs one group-commit round as leader: optionally sleep to
// grow the batch, land the whole buffer on disk, then apply every
// covered entry. The log handle is pinned by the caller so a concurrent
// Close cannot pull it away mid-round; a write on a closed file fails
// loudly and fails the round. gen fences the round against Compact: if
// the generation moves, the round's work was taken over by Compact's
// drain and its offsets are from a dead coordinate space.
func (s *Store) leadCommit(log *Log, gen uint64) {
	switch {
	case s.interval > 0:
		time.Sleep(s.interval)
	default:
		// Natural batching: the waiters of the previous round have just
		// been woken and are about to re-enqueue. Yield until the queue
		// stops growing so the round grabs the whole herd, not the two or
		// three writers the scheduler happened to run first — on a loaded
		// scheduler each yield runs every runnable goroutine once, so the
		// loop settles in a handful of iterations and costs no timer.
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
	}
	tail, wrote, stale, err := s.writeBatch(log, gen)
	if stale {
		// Compact drained, applied, and re-coordinated everything this
		// round was elected for. Nothing to fold; just hand back
		// leadership so current-generation waiters can elect their own.
		s.gc.mu.Lock()
		s.gc.leading = false
		s.gc.cond.Broadcast()
		s.gc.mu.Unlock()
		return
	}

	s.mu.Lock()
	s.gc.mu.Lock()
	if err != nil {
		if s.failed == nil {
			s.failed = err
			mSyncFailures.Inc()
		}
		if s.gc.err == nil {
			s.gc.err = err
		}
		s.gc.leading = false
		s.gc.cond.Broadcast()
		s.gc.mu.Unlock()
		s.mu.Unlock()
		return
	}
	if wrote {
		mFsyncs.Inc()
	}
	// A Compact may have slipped in between writeBatch releasing wmu and
	// this lock acquisition. Its drain already folded and applied this
	// round's records; folding the pre-compaction tail here would inflate
	// synced/applied past the real end of the *new* file and acknowledge
	// future Puts that were never written. Fold only if the coordinate
	// space is still ours.
	if s.gc.gen == gen {
		if tail > s.gc.synced {
			s.gc.synced = tail
		}
	}
	s.applyLocked()
	s.gc.leading = false
	s.gc.cond.Broadcast()
	s.gc.mu.Unlock()
	s.mu.Unlock()
}

// drainLocked force-completes the group pipeline; the caller holds
// s.mu, so no new appends can race in. Used by Close and Compact.
func (s *Store) drainLocked() {
	if s.log == nil || s.policy != SyncGroup {
		return
	}
	s.gc.mu.Lock()
	if s.gc.err != nil {
		s.gc.mu.Unlock()
		return
	}
	gen := s.gc.gen
	idle := len(s.gc.buf) == 0 && len(s.gc.queue) == 0 && s.gc.applied >= s.gc.tail
	s.gc.mu.Unlock()
	if idle {
		return
	}
	tail, wrote, stale, err := s.writeBatch(s.log, gen)
	if stale {
		// Unreachable: gen only moves under s.mu, which the caller holds.
		return
	}
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if err != nil {
		if s.failed == nil {
			s.failed = err
			mSyncFailures.Inc()
		}
		if s.gc.err == nil {
			s.gc.err = err
		}
		s.gc.cond.Broadcast()
		return
	}
	if wrote {
		mFsyncs.Inc()
	}
	if tail > s.gc.synced {
		s.gc.synced = tail
	}
	s.applyLocked()
	s.gc.cond.Broadcast()
}

// Subscribe registers fn for updates of key and returns a cancel func.
// fn observes every Put committed after Subscribe returns.
func (s *Store) Subscribe(key string, fn Subscriber) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[key] == nil {
		s.subs[key] = make(map[int]Subscriber)
	}
	id := s.nextS
	s.nextS++
	s.subs[key][id] = fn
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.subs[key], id)
	}
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
