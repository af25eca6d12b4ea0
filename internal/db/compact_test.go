package db

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readFile returns name's contents on fs.
func readFile(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// noLeftover fails the test if a rewrite's temporary file outlived the
// open that made it.
func noLeftover(t *testing.T, fs FS, path string) {
	t.Helper()
	if f, err := fs.OpenFile(path+".compact", os.O_RDONLY, 0); !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			f.Close()
		}
		t.Fatalf("%s.compact left behind by a successful open (err %v)", path, err)
	}
}

// framedSize is the log bytes of one record per key of items.
func framedSize(items map[string][]byte) int64 {
	var n int64
	for k, v := range items {
		n += int64(len(appendFramedRecord(nil, Record{Key: k, Value: v})))
	}
	return n
}

func TestCompactReclaimsSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Put("hot", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("cold", []byte("only-once"))
	before := s.LogSize()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopen rewrites the log to the latest version of each key.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := framedSize(map[string][]byte{"hot": []byte("version-499"), "cold": []byte("only-once")})
	if after := re.LogSize(); after != want || after >= before {
		t.Fatalf("log size %d -> %d across a reopen, want %d", before, after, want)
	}
	hot, ok := re.Get("hot")
	if !ok || string(hot.Value) != "version-499" || hot.Version != 500 {
		t.Fatalf("recovered hot = %+v ok=%v", hot, ok)
	}
	cold, ok := re.Get("cold")
	if !ok || string(cold.Value) != "only-once" {
		t.Fatalf("recovered cold = %+v", cold)
	}
	noLeftover(t, OSFS(), path)
}

func TestCompactThenWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put("x", []byte{byte(i)})
	}
	s.Close()
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Writes after the rewrite must append cleanly and survive recovery.
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
	if s.LogSize() != 0 {
		t.Fatal("in-memory store should report zero log size")
	}
}

// TestCompactIdempotent: a reopen with no writes since the last one
// rewrites the same bytes, apart from the epoch.
func TestCompactIdempotent(t *testing.T) {
	fs := NewCrashFS()
	o := Options{Path: "items.log", FS: fs}
	s, err := OpenWith(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Put("x", []byte{byte(i)})
	}
	s.Close()
	var sizes []int64
	var bodies []string
	for i := 0; i < 2; i++ {
		re, err := OpenWith(o)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, re.LogSize())
		re.Close()
		bodies = append(bodies, string(readFile(t, fs, o.Path)[fileHeaderSize:]))
	}
	if sizes[0] != sizes[1] || bodies[0] != bodies[1] {
		t.Fatalf("second reopen rewrote %d bytes after %d (records equal: %v)", sizes[1], sizes[0], bodies[0] == bodies[1])
	}
}

// TestCompactReplacesLeftoverTmp: a crash mid-open can leave the
// rewrite's temporary file behind. The next open must neither fail on it
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
			s, err := OpenWith(Options{Path: "stale.log", FS: fs})
			if err != nil {
				return err
			}
			for v := 1; v <= 20; v++ {
				if _, err := s.Put("x", []byte{byte(v)}); err != nil {
					return err
				}
			}
			if err := s.Close(); err != nil {
				return err
			}
			return fs.Rename("stale.log", "items.log.compact")
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := NewCrashFS()
			s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := s.Put("x", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := leave(fs); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				re, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: fs})
				if err != nil {
					t.Fatalf("open %d over a leftover tmp: %v", i, err)
				}
				if it, _ := re.Get("x"); it.Version != 30 || len(it.Value) != 1 || it.Value[0] != 29 {
					t.Fatalf("x after open %d = %+v, want version 30 value [29]", i, it)
				}
				noLeftover(t, fs, "items.log")
				re.Close()
			}
		})
	}
}
