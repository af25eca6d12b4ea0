package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetVersioning(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("x"); ok {
		t.Fatal("unwritten key should be absent")
	}
	it, err := s.Put("x", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if it.Version != 1 || string(it.Value) != "v1" {
		t.Fatalf("item = %+v", it)
	}
	it, _ = s.Put("x", []byte("v2"))
	if it.Version != 2 {
		t.Fatalf("version = %d", it.Version)
	}
	got, ok := s.Get("x")
	if !ok || string(got.Value) != "v2" || got.Version != 2 {
		t.Fatalf("got = %+v ok=%v", got, ok)
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := NewStore()
	buf := []byte("mutable")
	s.Put("x", buf)
	buf[0] = 'X'
	got, _ := s.Get("x")
	if string(got.Value) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q", got.Value)
	}
}

func TestKeysAndLen(t *testing.T) {
	s := NewStore()
	s.Put("a", nil)
	s.Put("b", nil)
	s.Put("a", nil)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	keys := s.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := NewStore()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Put("x", []byte{byte(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := s.Get("x")
	if got.Version != workers*per {
		t.Fatalf("version = %d, want %d", got.Version, workers*per)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Put("x", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("y", []byte("other"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	x, ok := re.Get("x")
	if !ok || x.Version != 10 || string(x.Value) != "v9" {
		t.Fatalf("x = %+v ok=%v", x, ok)
	}
	y, ok := re.Get("y")
	if !ok || y.Version != 1 || string(y.Value) != "other" {
		t.Fatalf("y = %+v", y)
	}
	// Appends after recovery must keep counting versions up.
	x2, err := re.Put("x", []byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if x2.Version != 11 {
		t.Fatalf("post-recovery version = %d", x2.Version)
	}
}

func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("x", []byte("good1"))
	s.Put("x", []byte("good2"))
	s.Close()

	// Simulate a crash mid-append: chop bytes off the end.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := re.Get("x")
	if !ok || string(x.Value) != "good1" || x.Version != 1 {
		t.Fatalf("recovered x = %+v", x)
	}
	// The torn tail was not copied into the rewritten log, so new appends
	// are valid.
	if _, err := re.Put("x", []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	re.Close()

	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	x, _ = re2.Get("x")
	if string(x.Value) != "after-crash" || x.Version != 2 {
		t.Fatalf("post-crash x = %+v", x)
	}
}

func TestCrashMidAppendRecovery(t *testing.T) {
	// A process killed mid-append leaves a record prefix with no clean
	// shutdown: no Close, no Sync, just whatever the OS had. The store is
	// abandoned (never closed) and a second handle plays the crashed
	// writer, leaving header+partial payload at the tail.
	path := filepath.Join(t.TempDir(), "items.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("x", []byte("v1"))
	s.Put("y", []byte("w1"))
	s.Put("x", []byte("v2"))

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := appendRecord(nil, Record{Key: "x", Value: []byte("lost-in-crash"), Version: 3})
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	f.Write(hdr[:])
	f.Write(payload[:len(payload)/2]) // the crash hits here
	f.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := re.Get("x")
	y, _ := re.Get("y")
	if x.Version != 2 || string(x.Value) != "v2" || y.Version != 1 || string(y.Value) != "w1" {
		t.Fatalf("recovered x=%+v y=%+v", x, y)
	}
	// The torn tail was not copied; the next append lands where the
	// partial record was and survives another reopen.
	if _, err := re.Put("x", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	x, _ = re2.Get("x")
	if x.Version != 3 || string(x.Value) != "v3" {
		t.Fatalf("post-crash append lost: %+v", x)
	}
}

func TestLogCloseSurfacesSyncFailure(t *testing.T) {
	// Close must sync to stable storage and must not swallow the error
	// when it cannot: a silently unsynced close is exactly the data-loss
	// window the sync exists to shut.
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := rewriteLog(OSFS(), path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.appendFramed(appendFramedRecord(nil, Record{Key: "k", Value: []byte("v"), Version: 1})); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // yank the fd: the sync inside Close must fail loudly
	if err := l.Close(); err == nil {
		t.Fatal("close with a dead fd should surface the sync failure")
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.log")
	s, _ := Open(path)
	s.Put("x", []byte("aaa"))
	s.Put("x", []byte("bbb"))
	s.Close()

	data, _ := os.ReadFile(path)
	// Flip a byte inside the second record's payload.
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	x, _ := re.Get("x")
	if string(x.Value) != "aaa" {
		t.Fatalf("corrupt record not skipped: %+v", x)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	check := func(key string, value []byte, version uint64) bool {
		if len(key) > 1<<16-1 {
			key = key[:1<<16-1]
		}
		rec := Record{Key: key, Value: value, Version: version}
		back, err := decodeRecord(appendRecord(nil, rec))
		if err != nil {
			return false
		}
		return back.Key == rec.Key && back.Version == rec.Version &&
			bytes.Equal(back.Value, rec.Value)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFramedRecordLayout pins the log bytes: the two golden frames
// were rendered by the two-copy frameRecord this function replaced, and a
// record framed behind earlier bytes must come out the same as one framed
// alone, leaving those bytes untouched — the group buffer appends record
// after record into one slice.
func TestAppendFramedRecordLayout(t *testing.T) {
	recs := []Record{
		{Key: "k1", Value: []byte("hello"), Version: 7},
		{Key: "", Value: nil, Version: 1 << 40},
	}
	golden := []string{
		"15000000533d90f9070000000000000002006b310500000068656c6c6f",
		"0e000000b9e155820000000000010000000000000000",
	}
	var all []byte
	for i, rec := range recs {
		alone := appendFramedRecord(nil, rec)
		if got := fmt.Sprintf("%x", alone); got != golden[i] {
			t.Errorf("record %d framed as %s, want %s", i, got, golden[i])
		}
		all = appendFramedRecord(all, rec)
		if !bytes.HasSuffix(all, alone) {
			t.Errorf("record %d framed differently behind %d earlier bytes", i, len(all)-len(alone))
		}
	}
	if got := fmt.Sprintf("%x", all); got != golden[0]+golden[1] {
		t.Errorf("two records framed into one buffer = %s", got)
	}
}

func TestDecodeRecordShortInputs(t *testing.T) {
	for n := 0; n < 10; n++ {
		if _, err := decodeRecord(make([]byte, n)); err == nil {
			t.Fatalf("decode of %d bytes should fail", n)
		}
	}
}

func TestCloseIdempotentInMemory(t *testing.T) {
	s := NewStore()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogSync: the rewrite's records and one appended after it are on
// the file once Close returns, behind the rewrite's epoch.
func TestLogSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.log")
	items := map[string]*record{"a": {Item: Item{Key: "a", Value: []byte("1"), Version: 3}}}
	l, err := rewriteLog(OSFS(), path, 7, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.appendFramed(appendFramedRecord(nil, Record{Key: "k", Value: []byte("v"), Version: 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	epoch, err := replayLog(OSFS(), path, func(r Record) { got = append(got, fmt.Sprintf("%s@%d=%s", r.Key, r.Version, r.Value)) })
	if err != nil || epoch != 7 || fmt.Sprint(got) != "[a@3=1 k@1=v]" {
		t.Fatalf("replayed epoch %d records %v (err %v), want epoch 7 [a@3=1 k@1=v]", epoch, got, err)
	}
}

func TestOpenBadPath(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "x.log")); err == nil {
		t.Fatal("open in missing directory should fail")
	}
	if _, err := rewriteLog(OSFS(), filepath.Join(t.TempDir(), "no", "such", "dir", "x.log"), 1, nil); err == nil {
		t.Fatal("rewriting a log in a missing directory should fail")
	}
}

func TestOpenRejectsUnreadableReplay(t *testing.T) {
	// A directory where the log file should be: Open must surface the
	// error instead of succeeding with silent data loss.
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("opening a directory as a log should fail")
	}
}

func TestReplayAbsurdLengthHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// After the file header, a record header claiming a 2 GiB record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatal("absurd record should be dropped")
	}
	// The torn tail is not copied; appends work.
	if _, err := s.Put("x", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("x", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The log handle is gone; Put must succeed in memory-only mode? No:
	// Close nils the log, so Put silently becomes in-memory. Verify the
	// documented behaviour: Put still works (memory) and does not error.
	if _, err := s.Put("x", []byte("w")); err != nil {
		t.Fatalf("put after close: %v", err)
	}
}

func TestCompactWithNoWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.LogSize() != 0 || re.Len() != 0 || re.Epoch() != 2 {
		t.Fatalf("reopened empty log: size %d, %d keys, epoch %d", re.LogSize(), re.Len(), re.Epoch())
	}
}

func TestCompactManyKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string][]byte)
	for round := 0; round < 5; round++ {
		for i := 0; i < 40; i++ {
			s.Put(fmt.Sprintf("k%02d", i), []byte{byte(round)})
			live[fmt.Sprintf("k%02d", i)] = []byte{byte(round)}
		}
	}
	s.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 40 || re.LogSize() != framedSize(live) {
		t.Fatalf("reopen holds %d keys in %d log bytes, want 40 in %d", re.Len(), re.LogSize(), framedSize(live))
	}
	for i := 0; i < 40; i++ {
		it, ok := re.Get(fmt.Sprintf("k%02d", i))
		if !ok || it.Version != 5 || it.Value[0] != 4 {
			t.Fatalf("k%02d = %+v ok=%v", i, it, ok)
		}
	}
}

// syncGateFS wraps an FS so that, once armed, every file Sync reports on
// entered and then blocks until release is closed: a test can park a
// group-commit leader inside its fsync.
type syncGateFS struct {
	FS
	entered chan struct{}
	release chan struct{}
}

func (g *syncGateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncGateFile{File: f, fs: g}, nil
}

type syncGateFile struct {
	File
	fs *syncGateFS
}

func (f *syncGateFile) Sync() error {
	if f.fs.release != nil {
		select {
		case f.fs.entered <- struct{}{}:
		default:
		}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestGroupCommitBatchesQueuedWriters pins the group-commit batch size
// without timing: a leader parks inside its fsync, K-1 writers queue
// behind it, and on release the next leader lands all K-1 records with
// one more fsync — 2 fsyncs for K records, by the store's own counters.
func TestGroupCommitBatchesQueuedWriters(t *testing.T) {
	const k = 1024
	gfs := &syncGateFS{FS: NewCrashFS()}
	s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gfs.entered = make(chan struct{}, 1)
	gfs.release = make(chan struct{})
	fsyncs, records := mFsyncs.Load(), mGroupRecords.Load()

	errs := make(chan error, k)
	put := func(i int) {
		_, err := s.Put(fmt.Sprintf("k%04d", i), []byte{byte(i)})
		errs <- err
	}
	go put(0)
	<-gfs.entered // the leader is inside its fsync with one record
	for i := 1; i < k; i++ {
		go put(i)
	}
	// The leader's entry stays queued until its fsync returns, so a queue
	// of k means every other writer has framed its record behind it.
	for {
		s.gc.mu.Lock()
		n := len(s.gc.queue)
		s.gc.mu.Unlock()
		if n == k {
			break
		}
		runtime.Gosched()
	}
	close(gfs.release)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := mFsyncs.Load() - fsyncs; got != 2 {
		t.Errorf("fsyncs for %d queued writers = %d, want 2", k, got)
	}
	if got := mGroupRecords.Load() - records; got != k {
		t.Errorf("group-committed records = %d, want %d", got, k)
	}
	if s.Len() != k {
		t.Errorf("visible keys = %d, want %d", s.Len(), k)
	}
}

// flatFS is a one-file in-memory FS whose file never reallocates: its
// bytes live in a buffer sized up front, so a pin on the store's own
// allocations counts nothing of the device's.
type flatFS struct{ f flatFile }

type flatFile struct {
	data []byte
	pos  int64
}

func newFlatFS(capacity int) *flatFS { return &flatFS{f: flatFile{data: make([]byte, 0, capacity)}} }

func (fs *flatFS) OpenFile(string, int, os.FileMode) (File, error) { return &fs.f, nil }
func (fs *flatFS) Rename(string, string) error                     { return nil }
func (fs *flatFS) Remove(string) error                             { return nil }
func (fs *flatFS) SyncDir(string) error                            { return nil }

func (f *flatFile) Read(p []byte) (int, error) {
	if f.pos >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *flatFile) Write(p []byte) (int, error) {
	end := f.pos + int64(len(p))
	if end > int64(cap(f.data)) {
		return 0, fmt.Errorf("flatFS: %d bytes is past the file's capacity", end)
	}
	if end > int64(len(f.data)) {
		f.data = f.data[:end]
	}
	copy(f.data[f.pos:], p)
	f.pos = end
	return len(p), nil
}

func (f *flatFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(f.data))
	}
	f.pos = offset
	return offset, nil
}

func (f *flatFile) Truncate(size int64) error { f.data = f.data[:size]; return nil }
func (f *flatFile) Sync() error               { return nil }
func (f *flatFile) Close() error              { return nil }

// TestGroupCommitPutAllocs pins a steady-state group-commit Put at zero
// allocations: the record is framed into a group buffer recycled from two
// rounds back, the queued value rides a buffer from the value free list
// that the apply swaps with the key's resident one, the queue reuses its
// backing array, and the round's write and fsync allocate nothing. The
// log it wrote must replay to the last Put.
func TestGroupCommitPutAllocs(t *testing.T) {
	fs := newFlatFS(4 << 20)
	s, err := OpenWith(Options{Path: "items.log", Sync: SyncGroup, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{7}, 1024)
	put := func() {
		if _, err := s.Put("k", value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		put() // the first two rounds size both group buffers
	}
	if got := testing.AllocsPerRun(500, put); got != 0 {
		t.Errorf("a group-commit Put allocated %.1f times per run, want 0", got)
	}
	last, _ := s.Get("k")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var it Item
	if _, err := replayLog(fs, "items.log", func(r Record) { it = Item(r) }); err != nil || it.Version != last.Version || !bytes.Equal(it.Value, value) {
		t.Fatalf("replayed version %d (err %v), want version %d", it.Version, err, last.Version)
	}
}

// TestParseSyncPolicy pins -sync's grammar: the two policies round-trip
// through String, and the retired "always" is refused like any other
// unknown name.
func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncGroup, SyncNever} {
		if got, err := ParseSyncPolicy(p.String()); err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p, got, err)
		}
	}
	for _, bad := range []string{"always", "", "Group", "bogus"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("ParseSyncPolicy(%q) accepted", bad)
		}
	}
}
