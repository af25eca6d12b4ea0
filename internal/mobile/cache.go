// Package mobile implements the mobile computer's local database: the
// cache that holds allocated copies of data items. The paper assumes
// storage at the mobile computer is abundant (section 8.2), so unlike a
// CPU cache there is no eviction under pressure — entries leave only when
// the allocation algorithm deallocates them. The cache tracks hit/miss
// statistics that the examples and experiments report.
package mobile

import (
	"bytes"
	"strings"
	"sync"
	"time"

	"mobirep/internal/db"
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
	// Updates counts propagated writes applied to cached copies.
	Updates int
	// StaleUpdates counts propagated writes that arrived for uncached
	// items (benign races during deallocation) or carried an old version.
	StaleUpdates int
	// Revalidations counts archived values confirmed current by the
	// server and reused without a payload transfer.
	Revalidations int
}

// Cache is a thread-safe item cache. Items that leave the cache move to a
// stale archive: they must not be served (they may be outdated), but their
// versions work as revalidation hints — a conditional read that matches
// the server's current version costs no payload bytes.
//
// A key has one record whether its copy is live or archived, so every
// operation — a propagated write above all — is one map probe.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	// live and archived count the entries in each state (Len, ArchiveLen).
	live, archived int
	now            func() time.Time
	stats          Stats
}

// entry is the one record the cache keeps per key.
type entry struct {
	// item is cache-owned: Key and Value were copied in.
	item db.Item
	// fresh records when the entry (live or archived) was last known to
	// match the server: at install, update, and revalidation. Bounded
	// staleness offline reads compare against it.
	fresh time.Time
	// live says the copy is allocated and may be served; an entry that is
	// not live is the stale archive's.
	live bool
	// shared says item.Value has been handed to a caller (see lend), so its
	// bytes must never change again; the next write installs a fresh buffer.
	shared bool
}

// lend returns the entry's item to a caller. Every accessor that hands an
// item out goes through it: from here on a reader may hold the value
// slice, so Update may no longer overwrite it in place.
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

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*entry), now: time.Now}
}

// SetClock overrides the cache's time source, for tests that need
// deterministic staleness ages.
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// find returns key's entry if it is in the asked-for state: live (the
// copy is allocated) or not (it sits in the stale archive). Caller holds
// c.mu.
func (c *Cache) find(key string, live bool) *entry {
	if e := c.entries[key]; e != nil && e.live == live {
		return e
	}
	return nil
}

// Get returns the cached item, recording a hit or miss.
func (c *Cache) Get(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key, true)
	if e == nil {
		c.stats.Misses++
		return db.Item{}, false
	}
	c.stats.Hits++
	return e.lend(), true
}

// Peek returns the cached item without touching statistics.
func (c *Cache) Peek(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key, true)
	if e == nil {
		return db.Item{}, false
	}
	return e.lend(), true
}

// Install stores a newly allocated copy, superseding any archived value.
// The cache owns its bytes: Key and Value are copied in, so the caller may
// pass fields that alias a borrowed transport frame (wire.DecodeBorrowed)
// and reuse the buffer the moment Install returns.
func (c *Cache) Install(it db.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[it.Key]
	if e == nil {
		e = &entry{}
		e.item.Key = strings.Clone(it.Key)
		c.entries[e.item.Key] = e
		c.live++
	} else if !e.live {
		c.archived--
		c.live++
	}
	e.item.Version = it.Version
	e.setValue(it.Value)
	e.live = true
	e.fresh = c.now()
	c.stats.Installs++
}

// Update applies a propagated write. It returns false — recording a stale
// update — if the item is not cached or the version does not advance,
// keeping propagation idempotent under races. Like Install, the cache
// copies the Value in; the resident entry's key is reused, so no borrowed
// byte survives the call.
func (c *Cache) Update(it db.Item) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(it.Key, true)
	if e == nil || it.Version <= e.item.Version {
		c.stats.StaleUpdates++
		return false
	}
	e.item.Version = it.Version
	e.setValue(it.Value)
	e.fresh = c.now()
	c.stats.Updates++
	return true
}

// Drop deallocates the copy, moving it to the stale archive. It reports
// whether a copy was present.
func (c *Cache) Drop(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key, true)
	if e == nil {
		return false
	}
	e.live = false
	c.live--
	c.archived++
	c.stats.Drops++
	return true
}

// Archived returns the stale archived item for key, if any. Archived
// values must not be served directly; their versions are revalidation
// hints.
func (c *Cache) Archived(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key, false)
	if e == nil {
		return db.Item{}, false
	}
	return e.lend(), true
}

// Revalidated promotes an archived item back to served status after the
// server confirmed its version is current. It reports whether an archived
// item existed.
func (c *Cache) Revalidated(key string) (db.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.find(key, false)
	if e == nil {
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
	e := c.find(key, true)
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
	return e.lend(), c.now().Sub(e.fresh), true
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
	return c.find(key, true) != nil
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
