package db

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// errFS wraps another FS and injects failures into chosen operations:
// the classic errfs pattern. Arm a failure by setting the corresponding
// field; it fires on every call until cleared.
type errFS struct {
	inner       FS
	failOpen    error
	failCreate  error // fails only the opens that may create a file
	failRemove  error
	failRename  error
	failSyncDir error
	// Per-file injections, applied to every file opened through this FS.
	file errFileConfig
}

type errFileConfig struct {
	failWrite *error // pointer so tests can arm/disarm after open
	failSync  *error
	failClose *error
}

func newErrFS(inner FS) *errFS {
	return &errFS{inner: inner, file: errFileConfig{
		failWrite: new(error), failSync: new(error), failClose: new(error),
	}}
}

func (e *errFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if e.failOpen != nil {
		return nil, e.failOpen
	}
	if e.failCreate != nil && flag&os.O_CREATE != 0 {
		return nil, e.failCreate
	}
	f, err := e.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errFile{File: f, cfg: e.file}, nil
}

func (e *errFS) Rename(oldpath, newpath string) error {
	if e.failRename != nil {
		return e.failRename
	}
	return e.inner.Rename(oldpath, newpath)
}

func (e *errFS) Remove(name string) error {
	if e.failRemove != nil {
		return e.failRemove
	}
	return e.inner.Remove(name)
}

func (e *errFS) SyncDir(name string) error {
	if e.failSyncDir != nil {
		return e.failSyncDir
	}
	return e.inner.SyncDir(name)
}

type errFile struct {
	File
	cfg errFileConfig
}

func (f *errFile) Write(p []byte) (int, error) {
	if err := *f.cfg.failWrite; err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *errFile) Sync() error {
	if err := *f.cfg.failSync; err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *errFile) Close() error {
	if err := *f.cfg.failClose; err != nil {
		return err
	}
	return f.File.Close()
}

var errInjected = errors.New("injected fault")

// openErrStore opens a store over an errFS-wrapped CrashFS with the
// given policy. Nothing is armed yet at open time.
func openErrStore(t *testing.T, policy SyncPolicy) (*Store, *errFS) {
	t.Helper()
	efs := newErrFS(NewCrashFS())
	s, err := OpenWith(Options{Path: "items.log", Sync: policy, FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	return s, efs
}

func TestFailedSyncFailsThePutThatNeededIt(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			s, efs := openErrStore(t, policy)
			if _, err := s.Put("x", []byte("ok")); err != nil {
				t.Fatal(err)
			}
			*efs.file.failSync = errInjected
			if _, err := s.Put("x", []byte("doomed")); !errors.Is(err, ErrFailed) {
				t.Fatalf("put with failing sync: err = %v, want ErrFailed", err)
			}
			// The failed write must not be visible: acknowledged state only.
			it, _ := s.Get("x")
			if string(it.Value) != "ok" || it.Version != 1 {
				t.Fatalf("failed put leaked into reads: %+v", it)
			}
		})
	}
}

func TestFailedAppendFailsPut(t *testing.T) {
	s, efs := openErrStore(t, SyncNever)
	if _, err := s.Put("x", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	*efs.file.failWrite = errInjected
	if _, err := s.Put("x", []byte("doomed")); !errors.Is(err, ErrFailed) {
		t.Fatalf("put with failing write: err = %v, want ErrFailed", err)
	}
	it, _ := s.Get("x")
	if string(it.Value) != "ok" {
		t.Fatalf("failed append leaked into reads: %+v", it)
	}
}

func TestStoreFailsClosedAfterSyncError(t *testing.T) {
	s, efs := openErrStore(t, SyncGroup)
	s.Put("x", []byte("ok"))
	*efs.file.failSync = errInjected
	if _, err := s.Put("x", []byte("doomed")); err == nil {
		t.Fatal("want failure")
	}
	// Even after the fault clears, the store must stay fail-closed: it
	// cannot know what state the file is really in.
	*efs.file.failSync = nil
	if _, err := s.Put("x", []byte("retry")); !errors.Is(err, ErrFailed) {
		t.Fatalf("store reopened for writes after a sync failure: %v", err)
	}
	// Reads keep serving the last acknowledged state.
	it, ok := s.Get("x")
	if !ok || string(it.Value) != "ok" || it.Version != 1 {
		t.Fatalf("reads after fail-closed: %+v ok=%v", it, ok)
	}
	// Close surfaces the sticky failure.
	if err := s.Close(); err == nil {
		t.Fatal("close after sync failure should report it")
	}
}

func TestGroupWaitersAllFailOnOneBadSync(t *testing.T) {
	s, efs := openErrStore(t, SyncGroup)
	s.Put("seed", []byte("v"))
	*efs.file.failSync = errInjected
	const writers = 8
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			_, err := s.Put("k", []byte{byte(i)})
			errs <- err
		}(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; !errors.Is(err, ErrFailed) {
			t.Fatalf("writer %d: err = %v, want ErrFailed", i, err)
		}
	}
	if it, ok := s.Get("k"); ok {
		t.Fatalf("no version of k was acknowledged, yet reads see %+v", it)
	}
}

func TestCloseSurfacesInjectedCloseError(t *testing.T) {
	s, efs := openErrStore(t, SyncGroup)
	s.Put("x", []byte("v"))
	*efs.file.failClose = errInjected
	if err := s.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("close error swallowed: %v", err)
	}
}

// TestCompactRenameFailureKeepsStoreWorking: a reopen whose rename,
// fsync or directory sync fails fails the open and leaves the old log
// byte-identical — live when the failure came before the rename, and
// after a crash when the directory sync failed — and the next open
// succeeds with every version.
func TestCompactRenameFailureKeepsStoreWorking(t *testing.T) {
	for _, f := range []struct {
		name string
		arm  func(e *errFS, err error)
	}{
		{"rename", func(e *errFS, err error) { e.failRename = err }},
		{"fsync", func(e *errFS, err error) { *e.file.failSync = err }},
		{"dir sync", func(e *errFS, err error) { e.failSyncDir = err }},
	} {
		t.Run(f.name, func(t *testing.T) {
			cfs := NewCrashFS()
			efs := newErrFS(cfs)
			o := Options{Path: "items.log", Sync: SyncGroup, FS: efs}
			s, err := OpenWith(o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				s.Put("x", []byte{byte(i)})
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			old := readFile(t, cfs, o.Path)
			f.arm(efs, errInjected)
			if re, err := OpenWith(o); !errors.Is(err, errInjected) {
				if err == nil {
					re.Close()
				}
				t.Fatalf("open with a failing %s: err = %v, want the injected fault", f.name, err)
			}
			f.arm(efs, nil)
			if f.name == "dir sync" {
				cfs.Kill(0) // the rename happened but was never made durable
			}
			if got := readFile(t, cfs, o.Path); !bytes.Equal(got, old) {
				t.Fatalf("failed open changed the log: %x, was %x", got, old)
			}
			re, err := OpenWith(o)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if it, _ := re.Get("x"); it.Version != 10 || it.Value[0] != 9 {
				t.Fatalf("recovered x = %+v", it)
			}
		})
	}
}
