package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// ownedValue is the self-checking value of (key, version): the key and
// the version in the first sixteen bytes, then a filler byte derived from
// both, at a length that also varies with both. Lengths alternate long
// and short from one version to the next, so consecutive versions
// exercise both the in-place copy and the fresh buffer.
func ownedValue(key int, version uint64) []byte {
	v := make([]byte, 16+(key*7+int(version)*101)%200)
	binary.LittleEndian.PutUint64(v[0:8], uint64(key))
	binary.LittleEndian.PutUint64(v[8:16], version)
	for i := 16; i < len(v); i++ {
		v[i] = byte(key*31 + int(version))
	}
	return v
}

// checkOwnedValue reports whether v is the value of (key, version).
func checkOwnedValue(v []byte, key int, version uint64) error {
	if want := ownedValue(key, version); !bytes.Equal(v, want) {
		return fmt.Errorf("key %d v%d: value %x, want %x", key, version, v, want)
	}
	return nil
}

// ownershipStore is one store per commit path. reopen closes a persistent
// store and opens its log again; it is nil for the in-memory one.
type ownershipStore struct {
	name   string
	s      *Store
	reopen func(*Store) *Store
}

// ownershipStores opens a store in memory, and on a crash-simulating FS
// under SyncGroup.
func ownershipStores(t *testing.T) []ownershipStore {
	t.Helper()
	out := []ownershipStore{{name: "memory", s: NewStore()}}
	for _, p := range []SyncPolicy{SyncGroup} {
		o := Options{Path: "items.log", Sync: p, FS: NewCrashFS()}
		s, err := OpenWith(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ownershipStore{name: p.String(), s: s, reopen: func(s *Store) *Store {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenWith(o)
			if err != nil {
				t.Fatal(err)
			}
			return re
		}})
	}
	return out
}

// TestStoreReturnedValuesNeverChange pins the store's lend rule: the
// bytes Get returns stay byte-identical across every later Put of the
// key — shorter values that would fit the resident buffer, longer ones
// that would not — and across GetCopy and close/reopen, under
// each commit path. Every third version is taken with Get and held, and
// a checker goroutine rereads the held values while the writes run.
func TestStoreReturnedValuesNeverChange(t *testing.T) {
	for _, st := range ownershipStores(t) {
		t.Run(st.name, func(t *testing.T) {
			s := st.s
			version := uint64(0)
			put := func() {
				version++
				if _, err := s.Put("x", ownedValue(0, version)); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			var held []Item
			check := func() error {
				mu.Lock()
				defer mu.Unlock()
				for _, it := range held {
					if err := checkOwnedValue(it.Value, 0, it.Version); err != nil {
						return fmt.Errorf("value returned by Get changed under its holder: %w", err)
					}
				}
				return nil
			}
			// The checker only reads: a write to held bytes is a data race
			// under -race, and the final check below catches it otherwise.
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						_ = check()
					}
				}
			}()
			var dst []byte
			for i := 0; i < 200; i++ {
				put()
				if i%3 == 0 {
					it, _ := s.Get("x")
					mu.Lock()
					held = append(held, it)
					mu.Unlock()
				} else {
					cp, _ := s.GetCopy("x", dst[:0])
					if err := checkOwnedValue(cp.Value, 0, cp.Version); err != nil {
						t.Fatalf("GetCopy: %v", err)
					}
					dst = cp.Value
				}
			}
			if st.reopen != nil {
				s = st.reopen(s)
				put()
			}
			close(stop)
			<-done
			if err := check(); err != nil {
				t.Error(err)
			}
			if it, _ := s.Get("x"); it.Version != version || checkOwnedValue(it.Value, 0, version) != nil {
				t.Errorf("latest = v%d %x, want v%d", it.Version, it.Value, version)
			}
			s.Close()
		})
	}
}

// TestStoreOwnershipHammer runs writers, Get readers that hold what they
// read and GetCopy readers against one store per commit
// path. Every key has one writer, so the writer knows each version it
// commits and writes that version's self-checking value; every read must
// decode to the (key, version) it came with, and every held value must
// still do so at the end. Meant for -race.
func TestStoreOwnershipHammer(t *testing.T) {
	const keys, writers, rounds = 8, 4, 1000
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("k%d", k)
	}
	for _, st := range ownershipStores(t) {
		t.Run(st.name, func(t *testing.T) {
			s := st.s
			defer s.Close()
			var writing sync.WaitGroup
			var stopped atomic.Bool
			errs := make(chan error, 16) // the first 16 failures; fail drops the rest
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					for i := 1; i <= rounds; i++ {
						for k := w; k < keys; k += writers {
							it, err := s.Put(names[k], ownedValue(k, uint64(i)))
							if err != nil {
								fail(err)
								return
							}
							if it.Version != uint64(i) {
								fail(fmt.Errorf("key %d: Put got v%d, want v%d", k, it.Version, i))
								return
							}
						}
					}
				}(w)
			}
			var reading sync.WaitGroup
			type held struct {
				key int
				it  Item
			}
			helds := make([][]held, 2)
			for r := 0; r < 2; r++ {
				reading.Add(2)
				go func(r int) { // Get: keep every fortieth item to recheck at the end
					defer reading.Done()
					for i := 0; !stopped.Load(); i++ {
						k := i % keys
						it, ok := s.Get(names[k])
						if !ok {
							continue
						}
						if err := checkOwnedValue(it.Value, k, it.Version); err != nil {
							fail(fmt.Errorf("Get: %w", err))
							return
						}
						if i%40 == 0 && len(helds[r]) < 256 {
							helds[r] = append(helds[r], held{k, it})
						}
						runtime.Gosched()
					}
				}(r)
				go func() { // GetCopy into one reused buffer
					defer reading.Done()
					var dst []byte
					for i := 0; !stopped.Load(); i++ {
						k := i % keys
						it, ok := s.GetCopy(names[k], dst[:0])
						if !ok {
							continue
						}
						if err := checkOwnedValue(it.Value, k, it.Version); err != nil {
							fail(fmt.Errorf("GetCopy: %w", err))
							return
						}
						dst = it.Value
						runtime.Gosched()
					}
				}()
			}
			writing.Wait()
			stopped.Store(true)
			reading.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, hs := range helds {
				for _, h := range hs {
					if err := checkOwnedValue(h.it.Value, h.key, h.it.Version); err != nil {
						t.Fatalf("held value changed: %v", err)
					}
				}
			}
			for k := range names {
				if it, _ := s.Get(names[k]); it.Version != rounds || checkOwnedValue(it.Value, k, rounds) != nil {
					t.Fatalf("key %d ends at v%d %x", k, it.Version, it.Value)
				}
			}
		})
	}
}

// TestGroupRoundHidesQueuedBytes parks a group-commit leader inside its
// fsync with one Put queued behind it and reads the key meanwhile: both
// readers — Get and GetCopy — must see the last durable version and its
// bytes, not the queued ones, even though the key's resident buffer was
// never lent (an implementation that copied over it at enqueue would
// show the queued bytes here). After the release both queued versions
// land in order.
func TestGroupRoundHidesQueuedBytes(t *testing.T) {
	// Key 14's first version is the longest of the three, so both queued
	// values would fit its buffer.
	const k = 14
	if n := len(ownedValue(k, 1)); n <= len(ownedValue(k, 2)) || n <= len(ownedValue(k, 3)) {
		t.Fatalf("key %d: v1 is %d bytes, no longer than v2 or v3", k, n)
	}
	gfs := &syncGateFS{FS: NewCrashFS()}
	s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put("x", ownedValue(k, 1)); err != nil {
		t.Fatal(err)
	}
	gfs.entered = make(chan struct{}, 1)
	gfs.release = make(chan struct{})
	errs := make(chan error, 2)
	put := func(v uint64) {
		_, err := s.Put("x", ownedValue(k, v))
		errs <- err
	}
	go put(2)
	<-gfs.entered // the leader is inside its fsync with v2
	go put(3)
	for {
		s.gc.mu.Lock()
		n := len(s.gc.queue)
		s.gc.mu.Unlock()
		if n == 2 {
			break
		}
		runtime.Gosched()
	}
	cp, _ := s.GetCopy("x", nil)
	if cp.Version != 1 || checkOwnedValue(cp.Value, k, 1) != nil {
		t.Errorf("GetCopy during the round = v%d %x, want v1", cp.Version, cp.Value)
	}
	it, _ := s.Get("x")
	if it.Version != 1 || checkOwnedValue(it.Value, k, 1) != nil {
		t.Errorf("Get during the round = v%d %x, want v1", it.Version, it.Value)
	}
	close(gfs.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if checkOwnedValue(it.Value, k, 1) != nil {
		t.Errorf("value lent during the round changed: %x", it.Value)
	}
	if it, _ := s.Get("x"); it.Version != 3 || checkOwnedValue(it.Value, k, 3) != nil {
		t.Errorf("after the round = v%d %x, want v3", it.Version, it.Value)
	}
}

// TestPutAllocs pins the resident buffer: a Put over a key whose value
// nobody holds copies in place and allocates nothing, in memory and with
// a SyncGroup log on the flat FS; a Put right after a Get of the same key
// must leave the lent bytes alone and so allocates exactly the new
// buffer. It also pins Put's result: the caller's own slice.
func TestPutAllocs(t *testing.T) {
	value := bytes.Repeat([]byte{7}, 256)
	for _, tc := range []struct {
		name string
		open func() *Store
	}{
		{"memory", NewStore},
		{"group", func() *Store {
			s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: newFlatFS(4 << 20)})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		s := tc.open()
		put := func() {
			it, err := s.Put("k", value)
			if err != nil {
				t.Fatal(err)
			}
			if &it.Value[0] != &value[0] {
				t.Fatalf("%s: Put returned a copy of the value, want the caller's slice", tc.name)
			}
		}
		put()
		if got := testing.AllocsPerRun(500, put); got != 0 {
			t.Errorf("%s: a Put allocated %.1f times per run, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(500, func() { s.Get("k"); put() }); got != 1 {
			t.Errorf("%s: a Put after a Get allocated %.1f times per run, want 1 (the fresh buffer)", tc.name, got)
		}
		s.Close()
	}
}
