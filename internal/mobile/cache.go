// Package mobile implements the mobile computer's local database: the
// cache that holds allocated copies of data items, and with them the MC's
// half of the allocation protocol's per-key state. The paper assumes
// storage at the mobile computer is abundant (section 8.2), so unlike a
// CPU cache there is no eviction under pressure — entries leave only when
// the allocation algorithm deallocates them. The cache tracks hit/miss
// statistics that the examples and experiments report.
package mobile

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
)

// Stats summarizes cache activity.
type Stats struct {
	// Hits counts local reads served from the cache.
	Hits int
	// Misses counts reads that had to go remote.
	Misses int
	// Installs counts copies allocated into the cache.
	Installs int
	// Drops counts copies deallocated from the cache.
	Drops int
	// Updates counts server-sent values applied to cached copies.
	Updates int
	// StaleUpdates counts propagated writes that arrived for uncached
	// items (benign races during deallocation), and server-sent values
	// that carried an old version.
	StaleUpdates int
	// Revalidations counts archived values confirmed current by the
	// server and reused without a payload transfer.
	Revalidations int
}

// Cache is the mobile computer's one record per key: the copy, whether
// it is allocated, and — for the sliding-window modes — the window the MC
// keeps while it is in charge. Each step of the MC's protocol (a local
// hit, an allocating response, a propagated write, a server revocation, a
// resync, a fence) is one method run under the cache's one lock, so a
// propagated write costs one lock and one map probe.
//
// Items that leave the cache move to a stale archive: they must not be
// served (they may be outdated), but their versions work as revalidation
// hints — a conditional read that matches the server's current version
// costs no payload bytes. A key has one record whether its copy is live
// or archived; its window survives the drop, because a deallocation the
// SC missed is re-asserted with it.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	// live and archived count the entries in each state (Len, ArchiveLen).
	live, archived int
	// k is the size of every record's window, 0 for the static modes,
	// whose records carry none; idle is the window of a key the SC is in
	// charge of — all writes, as a key starts before its first allocation.
	k    int
	idle core.Window
	// Freshness stamps are offsets from base: with no clock set, one
	// monotonic clock read (time.Since) each.
	base  time.Time
	clock func() time.Time
	stats Stats
}

// entry is the one record the cache keeps per key.
type entry struct {
	// item is cache-owned: Key and Value were copied in. Key is handed to
	// callers as the record's own key, so they need not clone one.
	item db.Item
	// fresh records when the entry (live or archived) was last known to
	// match the server, as an offset from Cache.base: at install, update,
	// and revalidation. Bounded staleness offline reads compare against it.
	fresh time.Duration
	// window is the MC's SWk window: slid while the copy is live, handed
	// back to the SC when it is dropped, and all writes once the SC took
	// charge again.
	window core.Window
	// live says the copy is allocated and may be served; an entry that is
	// not live is the stale archive's.
	live bool
	// shared says item.Value has been handed to a caller (see lend), so its
	// bytes must never change again; the next write installs a fresh buffer.
	shared bool
}

// lend returns the entry's item to a caller. Every accessor that hands an
// item out goes through it: from here on a reader may hold the value
// slice, so a write may no longer overwrite it in place.
func (e *entry) lend() db.Item {
	e.shared = true
	return e.item
}

// setValue makes the entry's value equal to v without disturbing any
// slice a reader holds: the bytes are copied over the resident buffer
// when nobody has seen it and it is large enough, into a fresh one
// otherwise. (An empty v always takes the clone, which allocates nothing
// and keeps nil distinct from empty.)
func (e *entry) setValue(v []byte) {
	if !e.shared && len(v) > 0 && len(v) <= cap(e.item.Value) {
		e.item.Value = e.item.Value[:len(v)]
		copy(e.item.Value, v)
		return
	}
	e.item.Value = bytes.Clone(v)
	e.shared = false
}

// NewCache returns an empty cache whose records carry no window: the
// static modes' MC.
func NewCache() *Cache { return NewWindowCache(0) }

// NewWindowCache returns an empty cache whose every record carries a
// window of size k, all writes until the key's first allocation: the SWk
// MC. k = 0 is NewCache.
func NewWindowCache(k int) *Cache {
	c := &Cache{entries: make(map[string]*entry), k: k, base: time.Now()}
	if k > 0 {
		c.idle = core.NewWindow(k, sched.Write)
	}
	return c
}

// SetClock overrides the cache's time source, for tests that need
// deterministic staleness ages.
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = now
	c.base = now()
}

// now is the freshness clock, an offset from base. Caller holds c.mu.
func (c *Cache) now() time.Duration {
	if c.clock != nil {
		return c.clock().Sub(c.base)
	}
	return time.Since(c.base)
}

// find returns key's entry if its copy is live. Caller holds c.mu.
func (c *Cache) find(key string) *entry {
	if e := c.entries[key]; e != nil && e.live {
		return e
	}
	return nil
}

// archive moves e's copy to the stale archive. Caller holds c.mu.
func (c *Cache) archive(e *entry) {
	e.live = false
	c.live--
	c.archived++
	c.stats.Drops++
}

// Get serves a local read: key's live copy, if its version is at least
// floor, with the read slid into the window. A live copy below the floor
// is not served — the caller goes remote — but still counts as a hit;
// no live copy counts as a miss and creates no record.
func (c *Cache) Get(key string, floor uint64) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.hit(key, floor); e != nil {
		return e.lend(), true
	}
	return db.Item{}, false
}

// GetCopy is Get with the value copied out, appended to dst under the
// cache's lock: the record's buffer is not lent, so the key's next write
// still overwrites it in place.
func (c *Cache) GetCopy(key string, floor uint64, dst []byte) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.hit(key, floor)
	if e == nil {
		return db.Item{}, false
	}
	it := e.item
	it.Value = append(dst, it.Value...)
	return it, true
}

// hit is a local read's step on key's record: it counts the hit or miss
// and, when the copy serves the floor, slides the window and returns the
// record. Caller holds c.mu.
func (c *Cache) hit(key string, floor uint64) *entry {
	e := c.find(key)
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	if e.item.Version < floor {
		return nil
	}
	if c.k > 0 {
		// The MC is in charge of a key it holds: slide its window.
		e.window.Push(sched.Read)
	}
	return e
}

// Peek returns the cached item without touching statistics.
func (c *Cache) Peek(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key)
	if e == nil {
		return db.Item{}, false
	}
	return e.lend(), true
}

// Install stores a newly allocated copy, superseding any archived value,
// unless a copy is already live: a duplicated allocating response must
// not reinstall a possibly older value or roll the window back to the
// bits of the original handoff. w is the window that rode the handoff; a
// window of another size (an allocation that carried none) is taken as
// all reads, which the next requests wash out. The cache owns its bytes:
// Key and Value are copied in, so the caller may pass fields that alias a
// borrowed transport frame (wire.DecodeBorrowed) and reuse the buffer the
// moment Install returns. It returns whether it installed and the
// installed item, with its value lent (see lend) when lend is set, so a
// reader waiting on the allocating response can take the cache's copy
// instead of making its own; without lend the value is nil and the
// buffer stays resident, for the next write to overwrite. When it did
// not install, only the item's Key — the cache-owned key — is set.
func (c *Cache) Install(it db.Item, w core.Window, lend bool) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[it.Key]
	if e == nil {
		e = &entry{}
		e.item.Key = strings.Clone(it.Key)
		c.entries[e.item.Key] = e
	} else if e.live {
		return db.Item{Key: e.item.Key}, false
	} else {
		c.archived--
	}
	c.live++
	e.item.Version = it.Version
	e.setValue(it.Value)
	e.live = true
	e.fresh = c.now()
	if c.k > 0 {
		if w.Size() != c.k {
			w = core.NewWindow(c.k, sched.Read)
		}
		e.window = w
	}
	c.stats.Installs++
	if !lend {
		return db.Item{Key: e.item.Key, Version: e.item.Version}, true
	}
	return e.lend(), true
}

// Outcome says what Apply did with a server-sent value.
type Outcome uint8

const (
	// Stale: the copy is live but the version did not advance, so the
	// value is inert — a duplicated or reordered delivery.
	Stale Outcome = iota
	// Applied: the live copy took the value.
	Applied
	// Dropped: the live copy took the value, and the writes it carried
	// gave the window a write majority, so the copy was deallocated; the
	// window to hand back to the SC is returned.
	Dropped
	// NotHeld: no live copy. For a propagated write the SC still believes
	// the MC subscribed, so the deallocation was lost in transit; the
	// window returned is the one to re-assert it with.
	NotHeld
)

// Apply folds a server-sent value into key's record. A propagated write
// (gap false) slides the window by one write; a resync re-ship or a
// read-through answer for a copy that lost writes (gap true) slides it by
// every version the copy missed, capped at the window size, beyond which
// older pushes would have slid out anyway. The value is copied in. Apply
// returns the cache-owned key ("" when the key has no record), what it
// did, and the record's window afterwards: for Dropped and NotHeld, the
// one to send with the DeleteReq.
func (c *Cache) Apply(it db.Item, gap bool) (string, Outcome, core.Window) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[it.Key]
	if e == nil || !e.live {
		if !gap {
			c.stats.StaleUpdates++
		}
		if e == nil {
			return "", NotHeld, c.idle
		}
		return e.item.Key, NotHeld, e.window
	}
	if it.Version <= e.item.Version {
		c.stats.StaleUpdates++
		return e.item.Key, Stale, e.window
	}
	missed := uint64(1)
	if gap {
		missed = min(it.Version-e.item.Version, uint64(c.k))
	}
	e.item.Version = it.Version
	e.setValue(it.Value)
	e.fresh = c.now()
	c.stats.Updates++
	out := Applied
	if c.k > 0 {
		for ; missed > 0; missed-- {
			e.window.Push(sched.Write)
		}
		if !e.window.ReadMajority() {
			c.archive(e)
			out = Dropped
		}
	}
	return e.item.Key, out, e.window
}

// Drop deallocates key's live copy, moving it to the stale archive, and
// returns the cache-owned key ("" when the key has no record), the
// record's window and whether a copy was live. The MC's own drop (revoke
// false) keeps the window, to hand back to the SC; the SC's DeleteReq
// (revoke true) resets it to all writes, because the SC is in charge now.
func (c *Cache) Drop(key string, revoke bool) (string, core.Window, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return "", c.idle, false
	}
	if revoke {
		e.window = c.idle
	}
	had := e.live
	if had {
		c.archive(e)
	}
	return e.item.Key, e.window, had
}

// Reset is the MC's cold restart (disconnect, reattach, epoch fence):
// every live copy moves to the archive and every window reverts to all
// writes, so each key starts over in the one-copy scheme. The archived
// values stay, as revalidation hints.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.live {
			c.archive(e)
		}
		e.window = c.idle
	}
}

// Held returns the live copies' keys, sorted, with their versions and,
// for the sliding-window modes, their windows (nil for the static ones):
// what a warm resync declares.
func (c *Cache) Held() ([]string, []uint64, []core.Window) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.live)
	for key, e := range c.entries {
		if e.live {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	versions := make([]uint64, len(keys))
	var windows []core.Window
	if c.k > 0 {
		windows = make([]core.Window, len(keys))
	}
	for i, key := range keys {
		e := c.entries[key]
		versions[i] = e.item.Version
		if windows != nil {
			windows[i] = e.window
		}
	}
	return keys, versions, windows
}

// Window returns key's window: the record's, or the all-writes window of
// a key that has none.
func (c *Cache) Window(key string) core.Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.window
	}
	return c.idle
}

// Archived returns the stale archived item for key, if any. Archived
// values must not be served directly; their versions are revalidation
// hints.
func (c *Cache) Archived(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.live {
		return db.Item{}, false
	}
	return e.lend(), true
}

// Revalidated returns an archived item the server confirmed current,
// restamping it fresh, for the caller to reinstall. It reports whether an
// archived item existed.
func (c *Cache) Revalidated(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.live {
		return db.Item{}, false
	}
	e.fresh = c.now()
	c.stats.Revalidations++
	return e.lend(), true
}

// Refresh marks a live entry as just confirmed current by the server
// (a warm-resync NotModified answer), counting a revalidation. It reports
// whether a live entry existed.
func (c *Cache) Refresh(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key)
	if e == nil {
		return false
	}
	e.fresh = c.now()
	c.stats.Revalidations++
	return true
}

// LastKnown returns the most recent value held for key — the live entry
// if present, else the stale archived one — along with its age: how long
// ago it was last known to match the server, measured by the cache clock.
// Callers that serve it during an outage must flag it as possibly stale.
func (c *Cache) LastKnown(key string) (db.Item, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return db.Item{}, 0, false
	}
	return e.lend(), c.now() - e.fresh, true
}

// ArchiveLen returns the number of archived items.
func (c *Cache) ArchiveLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.archived
}

// Contains reports whether key is cached, without touching statistics.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.find(key) != nil
}

// Len returns the number of cached items.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// HitRate returns Hits / (Hits + Misses), or 0 before any read.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
