package db

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestCrashFSLosesUnsyncedSuffix(t *testing.T) {
	c := NewCrashFS()
	f, err := c.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir("f"); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-lost"))
	c.Kill(0) // nothing after the syncs survives

	g, err := c.OpenFile("f", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(g)
	if string(data) != "durable" {
		t.Fatalf("post-crash contents = %q", data)
	}
	// The pre-crash handle is dead.
	if _, err := f.Write([]byte("zombie")); !errors.Is(err, errHandleDead) {
		t.Fatalf("stale handle write: %v", err)
	}
}

func TestCrashFSFileVanishesWithoutDirSync(t *testing.T) {
	c := NewCrashFS()
	f, _ := c.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("contents"))
	f.Sync() // contents durable, directory entry not
	c.Kill(0)
	if _, err := c.OpenFile("f", os.O_RDWR, 0o644); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file with un-synced dirent survived the crash: %v", err)
	}
}

func TestCrashFSCreateSurvivesInKeptPrefix(t *testing.T) {
	c := NewCrashFS()
	f, _ := c.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("abc"))
	// Journal: [create f, write abc]. Keep both: the file exists with its
	// un-synced write replayed.
	c.Kill(2)
	g, err := c.OpenFile("f", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(g)
	if string(data) != "abc" {
		t.Fatalf("contents = %q", data)
	}
}

func TestCrashFSRenameDurability(t *testing.T) {
	// tmp is written, synced, renamed over target; without SyncDir the
	// rename can be lost, with it the rename must survive.
	build := func() *CrashFS {
		c := NewCrashFS()
		old, _ := c.OpenFile("log", os.O_RDWR|os.O_CREATE, 0o644)
		old.Write([]byte("old"))
		old.Sync()
		c.SyncDir("log")
		old.Close()
		tmp, _ := c.OpenFile("log.tmp", os.O_RDWR|os.O_CREATE, 0o644)
		tmp.Write([]byte("new"))
		tmp.Sync()
		tmp.Close()
		if err := c.Rename("log.tmp", "log"); err != nil {
			t.Fatal(err)
		}
		return c
	}

	lost := build()
	lost.Kill(0) // rename never made it
	f, err := lost.OpenFile("log", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := io.ReadAll(f); string(data) != "old" {
		t.Fatalf("lost-rename contents = %q", data)
	}

	kept := build()
	kept.SyncDir("log")
	kept.Kill(0)
	f, err = kept.OpenFile("log", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := io.ReadAll(f); string(data) != "new" {
		t.Fatalf("synced-rename contents = %q", data)
	}
}

func TestCrashFSKillAtEveryPoint(t *testing.T) {
	// Whatever the kill point, the surviving file content must be a
	// prefix-consistent mix: synced bytes always present, journaled writes
	// present iff their op survived.
	c := NewCrashFS()
	f, _ := c.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	f.Write([]byte("AA"))
	f.Sync()
	c.SyncDir("f")
	f.Write([]byte("BB"))
	f.Write([]byte("CC"))
	want := map[int]string{0: "AA", 1: "AABB", 2: "AABBCC"}
	if got := c.Ops(); got != 2 {
		t.Fatalf("ops = %d, want 2 (desc: %v)", got, c.OpDescriptions())
	}
	for keep := 0; keep <= 2; keep++ {
		clone := NewCrashFS()
		g, _ := clone.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
		g.Write([]byte("AA"))
		g.Sync()
		clone.SyncDir("f")
		g.Write([]byte("BB"))
		g.Write([]byte("CC"))
		clone.Kill(keep)
		h, err := clone.OpenFile("f", os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(h)
		if string(data) != want[keep] {
			t.Fatalf("keep=%d: contents = %q, want %q", keep, data, want[keep])
		}
	}
}

// TestStoreKillPointSweep drives a real store over CrashFS, kills it at
// every journaled-op boundary, reopens, and asserts the durability
// contract: every acknowledged Put is present with its exact version,
// and the recovered state is a prefix of the acknowledged sequence (no
// rollback past a durable record, no phantom writes).
func TestStoreKillPointSweep(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			const writes = 8
			// First, a dry run to learn the journal length.
			probe := NewCrashFS()
			s, err := OpenWith(Options{Path: "kp.log", Sync: policy, FS: probe})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= writes; i++ {
				if _, err := s.Put("x", []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			ops := probe.Ops()

			for kill := 0; kill <= ops; kill++ {
				c := NewCrashFS()
				st, err := OpenWith(Options{Path: "kp.log", Sync: policy, FS: c})
				if err != nil {
					t.Fatal(err)
				}
				acked := uint64(0)
				for i := 1; i <= writes; i++ {
					it, err := st.Put("x", []byte(fmt.Sprintf("v%d", i)))
					if err != nil {
						t.Fatal(err)
					}
					acked = it.Version
				}
				c.Kill(kill)

				re, err := OpenWith(Options{Path: "kp.log", Sync: policy, FS: c})
				if err != nil {
					t.Fatalf("kill=%d: reopen: %v", kill, err)
				}
				it, ok := re.Get("x")
				switch {
				case !ok && acked > 0:
					t.Fatalf("kill=%d: acknowledged writes lost entirely", kill)
				case it.Version < acked:
					t.Fatalf("kill=%d: acknowledged version %d rolled back to %d",
						kill, acked, it.Version)
				case it.Version > uint64(writes):
					t.Fatalf("kill=%d: phantom version %d", kill, it.Version)
				}
				if want := fmt.Sprintf("v%d", it.Version); string(it.Value) != want {
					t.Fatalf("kill=%d: version %d has value %q, want %q",
						kill, it.Version, it.Value, want)
				}
				re.Close()
			}
		})
	}
}

// TestOpenKillPointSweep crashes a reopen at every journaled step of its
// rewrite, with and without a failed filesystem step before the crash
// (remove, create, write, fsync, rename, dir sync, each in turn): the
// open after the crash must hold every acknowledged version, its epoch
// must be above every epoch an earlier open returned, and it must leave
// no temporary file behind.
func TestOpenKillPointSweep(t *testing.T) {
	const keys, rounds = 4, 3
	faults := []struct {
		name string
		arm  func(e *errFS, on bool)
	}{
		{"none", func(*errFS, bool) {}},
		{"remove", func(e *errFS, on bool) { e.failRemove = errIf(on) }},
		{"create", func(e *errFS, on bool) { e.failCreate = errIf(on) }},
		{"write", func(e *errFS, on bool) { *e.file.failWrite = errIf(on) }},
		{"fsync", func(e *errFS, on bool) { *e.file.failSync = errIf(on) }},
		{"rename", func(e *errFS, on bool) { e.failRename = errIf(on) }},
		{"dir sync", func(e *errFS, on bool) { e.failSyncDir = errIf(on) }},
	}
	// reopen writes every key rounds times and reopens the log with the
	// fault armed; it returns the highest epoch an open returned.
	reopen := func(t *testing.T, c *CrashFS, arm func(*errFS, bool), fails bool) uint64 {
		e := newErrFS(c)
		s, err := OpenWith(Options{Path: "ok.log", Sync: SyncGroup, FS: e})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= rounds; round++ {
			for k := 0; k < keys; k++ {
				if _, err := s.Put(fmt.Sprintf("k%d", k), []byte{byte(round)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		top := s.Epoch()
		// Everything acknowledged is durable: from here on the journal is
		// the reopen's traffic only.
		c.Kill(c.Ops())
		arm(e, true)
		re, err := OpenWith(Options{Path: "ok.log", Sync: SyncGroup, FS: e})
		if (err != nil) != fails {
			t.Fatalf("reopen with a failing step: err = %v, want failure %v", err, fails)
		}
		if err == nil {
			top = re.Epoch()
		}
		return top
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			probe := NewCrashFS()
			fails := f.name != "none"
			reopen(t, probe, f.arm, fails)
			ops := probe.Ops()
			for kill := 0; kill <= ops; kill++ {
				c := NewCrashFS()
				top := reopen(t, c, f.arm, fails)
				journal := c.OpDescriptions()
				c.Kill(kill)
				re, err := OpenWith(Options{Path: "ok.log", Sync: SyncGroup, FS: c})
				if err != nil {
					t.Fatalf("kill=%d: reopen: %v (ops: %v)", kill, err, journal)
				}
				if re.Len() != keys {
					t.Fatalf("kill=%d: recovered %d keys, want %d", kill, re.Len(), keys)
				}
				for k := 0; k < keys; k++ {
					it, ok := re.Get(fmt.Sprintf("k%d", k))
					if !ok || it.Version != rounds || it.Value[0] != rounds {
						t.Fatalf("kill=%d: k%d = %+v ok=%v", kill, k, it, ok)
					}
				}
				if re.Epoch() <= top {
					t.Fatalf("kill=%d: epoch %d, an earlier open returned %d", kill, re.Epoch(), top)
				}
				noLeftover(t, c, "ok.log")
				re.Close()
			}
		})
	}
}

// errIf is errInjected when on, and nil otherwise.
func errIf(on bool) error {
	if on {
		return errInjected
	}
	return nil
}

func TestEpochBumpsOnEveryOpen(t *testing.T) {
	c := NewCrashFS()
	s, err := OpenWith(Options{Path: "e.log", FS: c})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("first open epoch = %d, want 1", s.Epoch())
	}
	s.Put("x", []byte("v"))
	s.Close()
	for want := uint64(2); want <= 4; want++ {
		re, err := OpenWith(Options{Path: "e.log", FS: c})
		if err != nil {
			t.Fatal(err)
		}
		if re.Epoch() != want {
			t.Fatalf("epoch = %d, want %d", re.Epoch(), want)
		}
		re.Close()
	}
}

func TestEpochBumpSurvivesCrashAfterOpen(t *testing.T) {
	// The epoch bump is synced during Open, before any Put can be
	// acknowledged: a crash immediately after Open must not reuse the
	// epoch on the next incarnation.
	c := NewCrashFS()
	s, err := OpenWith(Options{Path: "e.log", FS: c})
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.Epoch()
	c.Kill(0) // crash with nothing extra journaled
	re, err := OpenWith(Options{Path: "e.log", FS: c})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() <= e1 {
		t.Fatalf("epoch reused after crash: %d then %d", e1, re.Epoch())
	}
}

func TestOpenRefusesNonLogFile(t *testing.T) {
	// A file that is not a log (a mistyped -log path) must fail the open
	// and keep every byte: never replayed, truncated or rewritten.
	for name, size := range map[string]int{"1KiB": 1024, "shorter than a header": fileHeaderSize - 1} {
		path := t.TempDir() + "/not-a.log"
		data := make([]byte, size)
		for i := range data {
			data[i] = byte('a' + i%26)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path); !errors.Is(err, ErrCorruptHeader) {
			if err == nil {
				s.Close()
			}
			t.Errorf("%s: open non-log file: err = %v, want ErrCorruptHeader", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: non-log file changed by open: %d bytes (err %v), want the %d original bytes", name, len(got), err, len(data))
		}
	}
}

func TestCorruptHeaderRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.log"
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("x", []byte("v"))
	s.Close()
	data, _ := os.ReadFile(path)
	data[8] ^= 0xff // flip a bit inside the header's epoch field
	os.WriteFile(path, data, 0o644)
	if _, err := Open(path); !errors.Is(err, ErrCorruptHeader) {
		t.Fatalf("corrupt header: err = %v, want ErrCorruptHeader", err)
	}
}
