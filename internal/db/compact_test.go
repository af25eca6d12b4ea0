package db

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCompactRacesGroupCommit pins the coordinate-space race between
// Compact and an in-flight group-commit leader: a leader that finished
// its batch write before Compact swapped the log must not fold its
// pre-compaction tail into the compacted log's synced/applied offsets —
// doing so acknowledges later Puts before their records exist anywhere.
// The test hammers group-committed Puts against repeated Compacts, then
// pulls the plug (every un-synced byte lost) and checks that every
// acknowledged version survived.
func TestCompactRacesGroupCommit(t *testing.T) {
	cfs := NewCrashFS()
	s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}

	const writers, puts = 4, 60
	acked := make([]uint64, writers) // highest acknowledged version per key
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for i := 0; i < puts; i++ {
				it, err := s.Put(key, []byte(fmt.Sprintf("%d-%d", w, i)))
				if err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
					return
				}
				acked[w] = it.Version
			}
		}(w)
	}
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		for i := 0; i < 200; i++ {
			if _, err := s.Compact(); err != nil {
				errs <- fmt.Errorf("compact %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-compDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Crash without Close: drop every mutation since the last fsync. The
	// group-commit contract says nothing acknowledged may be among them.
	cfs.Kill(0)
	re, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for w := 0; w < writers; w++ {
		it, ok := re.Get(fmt.Sprintf("k%d", w))
		if !ok || it.Version < acked[w] {
			t.Fatalf("writer %d: acknowledged version %d, survived %d (ok=%v)",
				w, acked[w], it.Version, ok)
		}
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		if _, err := s.Put("hot", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("cold", []byte("only-once"))

	before := s.LogSize()
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	after := s.LogSize()
	if reclaimed <= 0 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
	if after >= before {
		t.Fatalf("log did not shrink: %d -> %d", before, after)
	}
	if before-after != reclaimed {
		t.Fatalf("reclaimed %d but shrank %d", reclaimed, before-after)
	}

	// State must be intact, both in memory and after recovery.
	hot, _ := s.Get("hot")
	if string(hot.Value) != "version-499" || hot.Version != 500 {
		t.Fatalf("hot = %+v", hot)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hot, ok := re.Get("hot")
	if !ok || string(hot.Value) != "version-499" || hot.Version != 500 {
		t.Fatalf("recovered hot = %+v ok=%v", hot, ok)
	}
	cold, ok := re.Get("cold")
	if !ok || string(cold.Value) != "only-once" {
		t.Fatalf("recovered cold = %+v", cold)
	}
}

func TestCompactThenWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put("x", []byte{byte(i)})
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Writes after compaction must append cleanly and survive recovery.
	if _, err := s.Put("x", []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	x, _ := re.Get("x")
	if string(x.Value) != "post-compact" || x.Version != 51 {
		t.Fatalf("x = %+v", x)
	}
}

func TestCompactInMemoryIsNoop(t *testing.T) {
	s := NewStore()
	s.Put("x", []byte("v"))
	reclaimed, err := s.Compact()
	if err != nil || reclaimed != 0 {
		t.Fatalf("reclaimed=%d err=%v", reclaimed, err)
	}
	if s.LogSize() != 0 {
		t.Fatal("in-memory store should report zero log size")
	}
}

func TestCompactIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put("x", []byte{byte(i)})
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	size := s.LogSize()
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 || s.LogSize() != size {
		t.Fatalf("second compact reclaimed %d, size %d -> %d", reclaimed, size, s.LogSize())
	}
}

// TestCompactReplacesLeftoverTmp: a crash mid-compaction can leave the
// temporary file behind. The next Compact must neither fail on it
// forever (a header torn before it was whole) nor keep its records
// behind the ones it writes (a run of records framed exactly like the
// rewrite's, which replay would apply after them: a rollback).
func TestCompactReplacesLeftoverTmp(t *testing.T) {
	for name, leave := range map[string]func(fs FS) error{
		"torn header": func(fs FS) error {
			f, err := fs.OpenFile("items.log.compact", os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.Write(logMagic[:3]); err != nil {
				return err
			}
			return f.Close()
		},
		"stale records": func(fs FS) error {
			l, err := OpenLogFS(fs, "items.log.compact")
			if err != nil {
				return err
			}
			for v := uint64(1); v <= 20; v++ {
				if err := l.Append(Record{Key: "x", Value: []byte{byte(v)}, Version: v}); err != nil {
					return err
				}
			}
			return l.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := NewCrashFS()
			s, err := OpenWith(Options{Path: "items.log", Sync: SyncAlways, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := s.Put("x", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := leave(fs); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatalf("compact over a leftover tmp: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenWith(Options{Path: "items.log", Sync: SyncAlways, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if it, _ := re.Get("x"); it.Version != 30 || len(it.Value) != 1 || it.Value[0] != 29 {
				t.Fatalf("x after compact and reopen = %+v, want version 30 value [29]", it)
			}
		})
	}
}
