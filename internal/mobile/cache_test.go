package mobile

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mobirep/internal/db"
)

func item(key string, version uint64) db.Item {
	return db.Item{Key: key, Value: []byte(key), Version: version}
}

func TestGetMissThenHit(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("x"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Install(item("x", 1))
	if it, ok := c.Get("x"); !ok || it.Version != 1 {
		t.Fatalf("get after install: %+v ok=%v", it, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Installs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := NewCache()
	c.Install(item("x", 1))
	c.Peek("x")
	c.Peek("y")
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("peek touched stats: %+v", s)
	}
}

func TestUpdateVersionGate(t *testing.T) {
	c := NewCache()
	c.Install(item("x", 5))
	if !c.Update(item("x", 6)) {
		t.Fatal("newer version rejected")
	}
	if c.Update(item("x", 6)) {
		t.Fatal("equal version accepted")
	}
	if c.Update(item("x", 3)) {
		t.Fatal("older version accepted")
	}
	if c.Update(item("y", 1)) {
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
	c.Install(item("x", 1))
	if !c.Drop("x") {
		t.Fatal("drop of cached key failed")
	}
	if c.Drop("x") {
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
					c.Install(item("x", uint64(i)))
				case 1:
					c.Get("x")
				case 2:
					c.Update(item("x", uint64(i)))
				case 3:
					c.Drop("x")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestArchiveLifecycle(t *testing.T) {
	c := NewCache()
	c.Install(item("x", 3))
	if c.ArchiveLen() != 0 {
		t.Fatal("archive should start empty")
	}
	c.Drop("x")
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
	c.Install(item("x", 1))
	c.Drop("x")
	c.Install(item("x", 2))
	if c.ArchiveLen() != 0 {
		t.Fatal("install should clear the archived version")
	}
	if _, ok := c.Archived("x"); ok {
		t.Fatal("stale archive entry survived a fresh install")
	}
}

// refCache is the three-map cache this package had before the one-record
// entry — live items, stale archive, freshness stamps — without locking or
// byte reuse: the reference the differential test holds the real cache to.
type refCache struct {
	items, archive map[string]db.Item
	fresh          map[string]time.Time
	now            func() time.Time
	stats          Stats
}

func (r *refCache) get(key string) (db.Item, bool) {
	it, ok := r.items[key]
	if ok {
		r.stats.Hits++
	} else {
		r.stats.Misses++
	}
	return it, ok
}

func (r *refCache) install(it db.Item) {
	it.Value = bytes.Clone(it.Value)
	r.items[it.Key] = it
	delete(r.archive, it.Key)
	r.fresh[it.Key] = r.now()
	r.stats.Installs++
}

func (r *refCache) update(it db.Item) bool {
	cur, ok := r.items[it.Key]
	if !ok || it.Version <= cur.Version {
		r.stats.StaleUpdates++
		return false
	}
	it.Value = bytes.Clone(it.Value)
	r.items[it.Key] = it
	r.fresh[it.Key] = r.now()
	r.stats.Updates++
	return true
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

// TestCacheMatchesThreeMapReference drives the cache and the reference
// with the same seeded operation sequences and requires every result, the
// counters and both sizes to agree after every step — and every value the
// cache ever returned to still hold the bytes it was returned with.
func TestCacheMatchesThreeMapReference(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1000, 0)
		now := func() time.Time { return clock }
		c := NewCache()
		c.SetClock(now)
		ref := &refCache{
			items: map[string]db.Item{}, archive: map[string]db.Item{},
			fresh: map[string]time.Time{}, now: now,
		}
		var handed []lent
		sameItem := func(step int, op string, got, want db.Item, gotOK, wantOK bool) {
			t.Helper()
			if gotOK != wantOK || got.Key != want.Key || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("seed %d step %d %s: got %+v %v, reference %+v %v", seed, step, op, got, gotOK, want, wantOK)
			}
			if gotOK {
				handed = append(handed, lent{op, got.Value, bytes.Clone(got.Value)})
			}
		}
		for step := 0; step < 2000; step++ {
			clock = clock.Add(time.Duration(rng.Intn(5)) * time.Second)
			key := keys[rng.Intn(len(keys))]
			// Sizes cross the resident buffer's capacity both ways; the
			// version moves forward, stands still or falls back.
			val := make([]byte, rng.Intn(24))
			rng.Read(val)
			cur := ref.items[key]
			it := db.Item{Key: key, Value: val, Version: cur.Version + uint64(rng.Intn(3))}
			if it.Version > 0 && rng.Intn(8) == 0 {
				it.Version--
			}
			switch op := rng.Intn(12); op {
			case 0, 1:
				c.Install(it)
				ref.install(it)
			case 2, 3, 4:
				if got, want := c.Update(it), ref.update(it); got != want {
					t.Fatalf("seed %d step %d Update(%+v) = %v, reference %v", seed, step, it, got, want)
				}
			case 5:
				if got, want := c.Drop(key), ref.drop(key); got != want {
					t.Fatalf("seed %d step %d Drop(%s) = %v, reference %v", seed, step, key, got, want)
				}
			case 6:
				got, ok := c.Get(key)
				want, wok := ref.get(key)
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
					t.Fatalf("seed %d step %d Refresh(%s) = %v, reference %v", seed, step, key, got, want)
				}
			case 11:
				got, age, ok := c.LastKnown(key)
				want, wage, wok := ref.lastKnown(key)
				if age != wage {
					t.Fatalf("seed %d step %d LastKnown(%s) age %v, reference %v", seed, step, key, age, wage)
				}
				sameItem(step, "LastKnown", got, want, ok, wok)
			}
			if c.Len() != len(ref.items) || c.ArchiveLen() != len(ref.archive) || c.Stats() != ref.stats {
				t.Fatalf("seed %d step %d: Len %d ArchiveLen %d Stats %+v, reference %d %d %+v",
					seed, step, c.Len(), c.ArchiveLen(), c.Stats(), len(ref.items), len(ref.archive), ref.stats)
			}
			if c.Contains(key) != (ref.items[key].Key != "") {
				t.Fatalf("seed %d step %d: Contains(%s) disagrees with the reference", seed, step, key)
			}
		}
		for _, l := range handed {
			l.check(t)
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
		{"Get", func(c *Cache) (db.Item, bool) { return c.Get("x") }},
		{"Peek", func(c *Cache) (db.Item, bool) { return c.Peek("x") }},
		{"LastKnown", func(c *Cache) (db.Item, bool) { it, _, ok := c.LastKnown("x"); return it, ok }},
		{"Archived", func(c *Cache) (db.Item, bool) { c.Drop("x"); return c.Archived("x") }},
		{"Revalidated", func(c *Cache) (db.Item, bool) { c.Drop("x"); return c.Revalidated("x") }},
	}
	for _, acc := range accessors {
		c := NewCache()
		c.Install(db.Item{Key: "x", Value: payload(64, 1), Version: 1})
		// Unseen so far: these land in place, and must stop doing so below.
		c.Update(db.Item{Key: "x", Value: payload(64, 2), Version: 2})
		c.Update(db.Item{Key: "x", Value: payload(32, 3), Version: 3})
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
				c.Install(next)
			case 4:
				c.Drop("x")
			default:
				c.Update(next)
			}
		}
		close(stop)
		<-done
		held.check(t)
	}
}

// TestUpdateAllocations pins the propagated-write cost at the MC: over an
// entry whose value nobody holds, Update copies into the resident buffer
// and allocates nothing; the first Update after a read must leave the
// reader's slice alone and so allocates exactly the new buffer, which the
// updates after it reuse again.
func TestUpdateAllocations(t *testing.T) {
	c := NewCache()
	val := make([]byte, 1024)
	version := uint64(1)
	c.Install(db.Item{Key: "x", Value: val, Version: version})
	update := func() {
		version++
		if !c.Update(db.Item{Key: "x", Value: val, Version: version}) {
			t.Fatal("update refused")
		}
	}
	if got := testing.AllocsPerRun(100, update); got != 0 {
		t.Errorf("Update over a never-read entry allocated %.0f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Get("x"); update() }); got != 1 {
		t.Errorf("first Update after a Get allocated %.0f times, want 1 (the buffer the reader does not hold)", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Get("x"); update(); update(); update() }); got != 1 {
		t.Errorf("Get then three Updates allocated %.0f times, want 1: only the first may clone", got)
	}
}
