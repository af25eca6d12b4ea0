package mobile

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
)

func item(key string, version uint64) db.Item {
	return db.Item{Key: key, Value: []byte(key), Version: version}
}

// install allocates it with no handoff window, dropping any live copy
// first so that the value always lands.
func install(c *Cache, it db.Item) {
	c.Drop(it.Key, false)
	c.Install(it, core.Window{}, true)
}

// update applies it as a propagated write and reports whether it took.
func update(c *Cache, it db.Item) bool {
	_, out, _ := c.Apply(it, false)
	return out == Applied
}

// drop deallocates key at the MC's choice and reports whether it was live.
func drop(c *Cache, key string) bool {
	_, _, ok := c.Drop(key, false)
	return ok
}

func TestGetMissThenHit(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("x", 0); ok {
		t.Fatal("empty cache returned a hit")
	}
	install(c, item("x", 1))
	if it, ok := c.Get("x", 0); !ok || it.Version != 1 {
		t.Fatalf("get after install: %+v ok=%v", it, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Installs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := NewCache()
	install(c, item("x", 1))
	c.Peek("x")
	c.Peek("y")
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("peek touched stats: %+v", s)
	}
}

func TestUpdateVersionGate(t *testing.T) {
	c := NewCache()
	install(c, item("x", 5))
	if !update(c, item("x", 6)) {
		t.Fatal("newer version rejected")
	}
	if update(c, item("x", 6)) {
		t.Fatal("equal version accepted")
	}
	if update(c, item("x", 3)) {
		t.Fatal("older version accepted")
	}
	if update(c, item("y", 1)) {
		t.Fatal("update of uncached key accepted")
	}
	s := c.Stats()
	if s.Updates != 1 || s.StaleUpdates != 3 {
		t.Fatalf("stats = %+v", s)
	}
	it, _ := c.Peek("x")
	if it.Version != 6 {
		t.Fatalf("version = %d", it.Version)
	}
}

func TestDrop(t *testing.T) {
	c := NewCache()
	install(c, item("x", 1))
	if !drop(c, "x") {
		t.Fatal("drop of cached key failed")
	}
	if drop(c, "x") {
		t.Fatal("double drop succeeded")
	}
	if c.Contains("x") || c.Len() != 0 {
		t.Fatal("item survived drop")
	}
	if c.Stats().Drops != 1 {
		t.Fatalf("drops = %d", c.Stats().Drops)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					install(c, item("x", uint64(i)))
				case 1:
					c.Get("x", 0)
				case 2:
					update(c, item("x", uint64(i)))
				case 3:
					drop(c, "x")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestArchiveLifecycle(t *testing.T) {
	c := NewCache()
	install(c, item("x", 3))
	if c.ArchiveLen() != 0 {
		t.Fatal("archive should start empty")
	}
	drop(c, "x")
	if c.ArchiveLen() != 1 {
		t.Fatal("drop should archive")
	}
	arch, ok := c.Archived("x")
	if !ok || arch.Version != 3 {
		t.Fatalf("archived = %+v ok=%v", arch, ok)
	}
	// Archived values are not served.
	if c.Contains("x") {
		t.Fatal("archived item still cached")
	}
	// Revalidation returns the archived value and counts it.
	got, ok := c.Revalidated("x")
	if !ok || got.Version != 3 {
		t.Fatalf("revalidated = %+v ok=%v", got, ok)
	}
	if c.Stats().Revalidations != 1 {
		t.Fatalf("revalidations = %d", c.Stats().Revalidations)
	}
	if _, ok := c.Revalidated("missing"); ok {
		t.Fatal("revalidated a never-seen key")
	}
}

func TestInstallSupersedesArchive(t *testing.T) {
	c := NewCache()
	install(c, item("x", 1))
	drop(c, "x")
	install(c, item("x", 2))
	if c.ArchiveLen() != 0 {
		t.Fatal("install should clear the archived version")
	}
	if _, ok := c.Archived("x"); ok {
		t.Fatal("stale archive entry survived a fresh install")
	}
}

// refCache is the MC's per-key state as it was before the one-record
// cache: three maps for the cache — live items, stale archive, freshness
// stamps — and the client's own copy bit and window beside them, without
// locking or byte reuse. The copy bit is "in items"; a window is a plain
// list of requests, oldest first, sharing no code with core.Window. It is
// the reference the differential test holds the real cache to.
type refCache struct {
	items, archive map[string]db.Item
	fresh          map[string]time.Time
	windows        map[string]sched.Schedule // absent: all writes
	k              int
	now            func() time.Time
	stats          Stats
}

func (r *refCache) window(key string) sched.Schedule {
	if w, ok := r.windows[key]; ok {
		return w
	}
	if r.k == 0 {
		return nil
	}
	w := make(sched.Schedule, r.k)
	for i := range w {
		w[i] = sched.Write
	}
	return w
}

func (r *refCache) slide(key string, op sched.Op) {
	r.windows[key] = append(slices.Clone(r.window(key)[1:]), op)
}

func (r *refCache) readMajority(key string) bool {
	writes := 0
	for _, op := range r.window(key) {
		if op == sched.Write {
			writes++
		}
	}
	return 2*writes < r.k
}

func (r *refCache) get(key string, floor uint64) (db.Item, bool) {
	it, ok := r.items[key]
	if !ok {
		r.stats.Misses++
		return db.Item{}, false
	}
	r.stats.Hits++
	if it.Version < floor {
		return db.Item{}, false
	}
	if r.k > 0 {
		r.slide(key, sched.Read)
	}
	return it, true
}

func (r *refCache) install(it db.Item, handoff sched.Schedule) {
	it.Value = bytes.Clone(it.Value)
	r.items[it.Key] = it
	delete(r.archive, it.Key)
	r.fresh[it.Key] = r.now()
	if r.k > 0 {
		if len(handoff) != r.k {
			handoff = make(sched.Schedule, r.k) // all reads
		}
		r.windows[it.Key] = handoff
	}
	r.stats.Installs++
}

func (r *refCache) drop(key string) bool {
	it, ok := r.items[key]
	if !ok {
		return false
	}
	r.archive[key] = it
	delete(r.items, key)
	r.stats.Drops++
	return true
}

func (r *refCache) apply(it db.Item, gap bool) Outcome {
	cur, ok := r.items[it.Key]
	if !ok {
		if !gap {
			r.stats.StaleUpdates++
		}
		return NotHeld
	}
	if it.Version <= cur.Version {
		r.stats.StaleUpdates++
		return Stale
	}
	missed := 1
	if gap {
		missed = int(it.Version - cur.Version)
		if missed > r.k {
			missed = r.k
		}
	}
	it.Value = bytes.Clone(it.Value)
	r.items[it.Key] = it
	r.fresh[it.Key] = r.now()
	r.stats.Updates++
	if r.k == 0 {
		return Applied
	}
	for i := 0; i < missed; i++ {
		r.slide(it.Key, sched.Write)
	}
	if r.readMajority(it.Key) {
		return Applied
	}
	r.drop(it.Key)
	return Dropped
}

func (r *refCache) reset() {
	for key := range r.items {
		r.drop(key)
	}
	r.windows = map[string]sched.Schedule{}
}

func (r *refCache) held() ([]string, []uint64) {
	var keys []string
	for key := range r.items {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	versions := make([]uint64, len(keys))
	for i, key := range keys {
		versions[i] = r.items[key].Version
	}
	return keys, versions
}

func (r *refCache) revalidated(key string) (db.Item, bool) {
	it, ok := r.archive[key]
	if ok {
		r.fresh[key] = r.now()
		r.stats.Revalidations++
	}
	return it, ok
}

func (r *refCache) refresh(key string) bool {
	_, ok := r.items[key]
	if ok {
		r.fresh[key] = r.now()
		r.stats.Revalidations++
	}
	return ok
}

func (r *refCache) lastKnown(key string) (db.Item, time.Duration, bool) {
	it, ok := r.items[key]
	if !ok {
		it, ok = r.archive[key]
	}
	if !ok {
		return db.Item{}, 0, false
	}
	return it, r.now().Sub(r.fresh[key]), true
}

// lent is a value the cache handed out, with the bytes it had at the time.
type lent struct {
	op       string
	got, was []byte
}

func (l lent) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(l.got, l.was) {
		t.Errorf("value returned by %s changed under its holder: %q, was %q", l.op, l.got, l.was)
	}
}

// bitsOf is w's requests, nil for the empty window (a windowless record).
func bitsOf(w core.Window) sched.Schedule {
	if w.Size() == 0 {
		return nil
	}
	return w.Bits()
}

// TestCacheMatchesThreeMapReference drives the cache and the reference
// with the same seeded operation sequences — the accessors and every
// protocol step the cache owns: local reads with and without a floor,
// allocating responses (with handoff windows of the right size, the wrong
// one and none; inert over a live copy), propagated writes and gap-counting re-ships, MC drops,
// SC revocations, resets and resync declarations — for windowless records
// and windows of 1, 3 and 5. Every result, the window any step returns,
// every key's copy bit and window, the counters and both sizes must agree
// after every step, and every value the cache ever returned must still
// hold the bytes it was returned with.
func TestCacheMatchesThreeMapReference(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	for _, k := range []int{0, 1, 3, 5} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			clock := time.Unix(1000, 0)
			now := func() time.Time { return clock }
			c := NewWindowCache(k)
			c.SetClock(now)
			ref := &refCache{
				items: map[string]db.Item{}, archive: map[string]db.Item{},
				fresh: map[string]time.Time{}, windows: map[string]sched.Schedule{},
				k: k, now: now,
			}
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("k=%d seed %d step %d: "+format, append([]any{k, seed, step}, args...)...)
			}
			var handed []lent
			sameItem := func(step int, op string, got, want db.Item, gotOK, wantOK bool) {
				t.Helper()
				if gotOK != wantOK || got.Key != want.Key || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
					fail(step, "%s: got %+v %v, reference %+v %v", op, got, gotOK, want, wantOK)
				}
				if gotOK {
					handed = append(handed, lent{op, got.Value, bytes.Clone(got.Value)})
				}
			}
			sameKey := func(step int, op, got, key string) {
				t.Helper()
				_, live := ref.items[key]
				_, archived := ref.archive[key]
				if want := key; !live && !archived {
					if got != "" {
						fail(step, "%s(%s) returned key %q for a key with no record", op, key, got)
					}
				} else if got != want {
					fail(step, "%s(%s) returned key %q", op, key, got)
				}
			}
			for step := 0; step < 2000; step++ {
				clock = clock.Add(time.Duration(rng.Intn(5)) * time.Second)
				key := keys[rng.Intn(len(keys))]
				// Sizes cross the resident buffer's capacity both ways; the
				// version moves forward, stands still or falls back.
				val := make([]byte, rng.Intn(24))
				rng.Read(val)
				cur, ok := ref.items[key]
				if !ok {
					cur = ref.archive[key]
				}
				it := db.Item{Key: key, Value: val, Version: cur.Version + uint64(rng.Intn(4))}
				if it.Version > 0 && rng.Intn(8) == 0 {
					it.Version--
				}
				// A handoff window: k random requests, or (now and then)
				// one of the wrong size, which the cache reads as all reads.
				var handoff sched.Schedule
				if n := k; n > 0 || rng.Intn(2) == 0 {
					if rng.Intn(6) == 0 {
						n = 1 + rng.Intn(7)
					}
					for i := 0; i < n; i++ {
						handoff = append(handoff, sched.Op(rng.Intn(2)))
					}
				}
				switch op := rng.Intn(16); op {
				case 0, 1:
					got, installed := c.Install(it, core.WindowOf(handoff), true)
					_, live := ref.items[key]
					if !live {
						ref.install(it, handoff)
					}
					if installed == live {
						fail(step, "Install(%+v) installed=%v with a copy live=%v", it, installed, live)
					}
					sameKey(step, "Install", got.Key, key)
				case 2, 3, 4:
					gap := rng.Intn(2) == 0
					got, out, win := c.Apply(it, gap)
					sameKey(step, "Apply", got, key)
					want := ref.apply(it, gap)
					if wwin := ref.window(key); out != want || !slices.Equal(bitsOf(win), wwin) {
						fail(step, "Apply(%+v, gap=%v) = %v %v, reference %v %v", it, gap, out, bitsOf(win), want, wwin)
					}
				case 5, 12:
					// The MC's own drop, or (12) the SC's revocation.
					revoke := op == 12
					got, win, had := c.Drop(key, revoke)
					sameKey(step, "Drop", got, key)
					want := ref.drop(key)
					if revoke {
						delete(ref.windows, key)
					}
					if wwin := ref.window(key); had != want || !slices.Equal(bitsOf(win), wwin) {
						fail(step, "Drop(%s, %v) = %v %v, reference %v %v", key, revoke, bitsOf(win), had, wwin, want)
					}
				case 6:
					floor := uint64(0)
					if rng.Intn(2) == 0 {
						floor = cur.Version + uint64(rng.Intn(2))
					}
					got, ok := c.Get(key, floor)
					want, wok := ref.get(key, floor)
					sameItem(step, "Get", got, want, ok, wok)
				case 7:
					got, ok := c.Peek(key)
					want, wok := ref.items[key]
					sameItem(step, "Peek", got, want, ok, wok)
				case 8:
					got, ok := c.Archived(key)
					want, wok := ref.archive[key]
					sameItem(step, "Archived", got, want, ok, wok)
				case 9:
					got, ok := c.Revalidated(key)
					want, wok := ref.revalidated(key)
					sameItem(step, "Revalidated", got, want, ok, wok)
				case 10:
					if got, want := c.Refresh(key), ref.refresh(key); got != want {
						fail(step, "Refresh(%s) = %v, reference %v", key, got, want)
					}
				case 11:
					got, age, ok := c.LastKnown(key)
					want, wage, wok := ref.lastKnown(key)
					if age != wage {
						fail(step, "LastKnown(%s) age %v, reference %v", key, age, wage)
					}
					sameItem(step, "LastKnown", got, want, ok, wok)
				case 13:
					if rng.Intn(8) == 0 {
						c.Reset()
						ref.reset()
					}
				case 14, 15:
					gotKeys, gotVersions, gotWindows := c.Held()
					wantKeys, wantVersions := ref.held()
					if !slices.Equal(gotKeys, wantKeys) || !slices.Equal(gotVersions, wantVersions) {
						fail(step, "Held = %v %v, reference %v %v", gotKeys, gotVersions, wantKeys, wantVersions)
					}
					if (gotWindows != nil) != (k > 0) {
						fail(step, "Held declared windows %v with window size %d", gotWindows, k)
					}
					for i, w := range gotWindows {
						if want := ref.window(gotKeys[i]); !slices.Equal(bitsOf(w), want) {
							fail(step, "Held's window for %s = %v, reference %v", gotKeys[i], bitsOf(w), want)
						}
					}
				}
				if c.Len() != len(ref.items) || c.ArchiveLen() != len(ref.archive) || c.Stats() != ref.stats {
					fail(step, "Len %d ArchiveLen %d Stats %+v, reference %d %d %+v",
						c.Len(), c.ArchiveLen(), c.Stats(), len(ref.items), len(ref.archive), ref.stats)
				}
				for _, key := range keys {
					_, live := ref.items[key]
					if c.Contains(key) != live {
						fail(step, "Contains(%s) disagrees with the reference's copy bit %v", key, live)
					}
					if got, want := bitsOf(c.Window(key)), ref.window(key); !slices.Equal(got, want) {
						fail(step, "Window(%s) = %v, reference %v", key, got, want)
					}
				}
			}
			for _, l := range handed {
				l.check(t)
			}
		}
	}
}

// TestReturnedValuesNeverChange is the rule in-place update must keep: a
// value any accessor handed out is never written again, whatever follows.
// Each round takes a value through one of the five accessors, then a
// reader goroutine keeps comparing it to its snapshot while the cache is
// updated, reinstalled and dropped with same-sized, smaller and larger
// payloads — under -race an in-place write to a lent slice is a reported
// race, not just a mismatch.
func TestReturnedValuesNeverChange(t *testing.T) {
	payload := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	accessors := []struct {
		name string
		take func(c *Cache) (db.Item, bool)
	}{
		{"Get", func(c *Cache) (db.Item, bool) { return c.Get("x", 0) }},
		{"Peek", func(c *Cache) (db.Item, bool) { return c.Peek("x") }},
		{"LastKnown", func(c *Cache) (db.Item, bool) { it, _, ok := c.LastKnown("x"); return it, ok }},
		{"Archived", func(c *Cache) (db.Item, bool) { drop(c, "x"); return c.Archived("x") }},
		{"Revalidated", func(c *Cache) (db.Item, bool) { drop(c, "x"); return c.Revalidated("x") }},
	}
	for _, acc := range accessors {
		c := NewCache()
		install(c, db.Item{Key: "x", Value: payload(64, 1), Version: 1})
		// Unseen so far: these land in place, and must stop doing so below.
		update(c, db.Item{Key: "x", Value: payload(64, 2), Version: 2})
		update(c, db.Item{Key: "x", Value: payload(32, 3), Version: 3})
		it, ok := acc.take(c)
		if !ok {
			t.Fatalf("%s returned nothing", acc.name)
		}
		held := lent{acc.name, it.Value, bytes.Clone(it.Value)}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					held.check(t)
				}
			}
		}()
		version := uint64(3)
		for i := 0; i < 300; i++ {
			version++
			next := db.Item{Key: "x", Value: payload(16+(i*7)%80, byte(i)), Version: version}
			switch i % 5 {
			case 0:
				install(c, next)
			case 4:
				drop(c, "x")
			default:
				update(c, next)
			}
		}
		close(stop)
		<-done
		held.check(t)
	}
}

// TestUpdateAllocations pins the propagated-write cost at the MC: over an
// entry whose value nobody holds, Apply copies into the resident buffer
// and allocates nothing; the first write after a read must leave the
// reader's slice alone and so allocates exactly the new buffer, which the
// writes after it reuse again.
func TestUpdateAllocations(t *testing.T) {
	c := NewCache()
	val := make([]byte, 1024)
	version := uint64(1)
	install(c, db.Item{Key: "x", Value: val, Version: version})
	write := func() {
		version++
		if !update(c, db.Item{Key: "x", Value: val, Version: version}) {
			t.Fatal("update refused")
		}
	}
	if got := testing.AllocsPerRun(100, write); got != 0 {
		t.Errorf("a write over a never-read entry allocated %.0f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Get("x", 0); write() }); got != 1 {
		t.Errorf("first write after a Get allocated %.0f times, want 1 (the buffer the reader does not hold)", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Get("x", 0); write(); write(); write() }); got != 1 {
		t.Errorf("Get then three writes allocated %.0f times, want 1: only the first may clone", got)
	}
}
