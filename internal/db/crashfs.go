package db

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// CrashFS is a deterministic in-memory filesystem with power-cut
// semantics, in the spirit of transport.Chaos but for storage: every
// mutation since the last fsync sits in an ordered journal of un-synced
// operations, and Kill(n) simulates pulling the plug after exactly the
// first n of them reached the platter. Everything else — including the
// suffix of un-synced writes, created files whose directory entry was
// never fsynced, and renames not followed by a directory sync — is lost,
// which is precisely what a real kernel is allowed to do.
//
// The model separates the two durabilities POSIX separates:
//
//   - File.Sync makes a file's *contents* durable but not its directory
//     entry: a file created and synced but whose parent directory was
//     never synced can still vanish wholesale at a crash.
//   - FS.SyncDir makes directory entries (creations, renames, removals)
//     durable, in journal order.
//
// After Kill, all open File handles are dead (the process holding them
// is gone); a new incarnation starts from OpenFile on the surviving
// state. Kill also resets the journal, so a test can crash the same
// filesystem repeatedly.
type CrashFS struct {
	mu        sync.Mutex
	gen       int               // bumped on Kill; stale handles fail
	exists    map[string]bool   // live directory entries
	data      map[string][]byte // live contents
	durDirent map[string]bool   // durable directory entries
	durData   map[string][]byte // durable (synced) contents
	journal   []crashOp
}

type crashOpKind int

const (
	opCreate crashOpKind = iota
	opWrite
	opRename
	opRemove
)

type crashOp struct {
	kind crashOpKind
	name string
	to   string // rename target
	off  int64
	data []byte
}

func (k crashOpKind) String() string {
	switch k {
	case opCreate:
		return "create"
	case opWrite:
		return "write"
	case opRename:
		return "rename"
	case opRemove:
		return "remove"
	}
	return "?"
}

// NewCrashFS returns an empty in-memory filesystem.
func NewCrashFS() *CrashFS {
	return &CrashFS{
		exists:    make(map[string]bool),
		data:      make(map[string][]byte),
		durDirent: make(map[string]bool),
		durData:   make(map[string][]byte),
	}
}

// Ops returns the current length of the un-synced operation journal.
// Kill(n) with 0 <= n <= Ops() chooses how much of it survives.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.journal)
}

// OpDescriptions returns a human-readable label per journaled op, for
// test failure messages in kill-point sweeps.
func (c *CrashFS) OpDescriptions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.journal))
	for i, op := range c.journal {
		out[i] = fmt.Sprintf("%s %s off=%d len=%d", op.kind, op.name, op.off, len(op.data))
	}
	return out
}

// Kill simulates a power cut: the first keep journaled operations
// survive, the rest are lost, and the filesystem state collapses to
// what stable storage would hold. All open handles become invalid.
func (c *CrashFS) Kill(keep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if keep < 0 {
		keep = 0
	}
	if keep > len(c.journal) {
		keep = len(c.journal)
	}
	exists, data := c.replayLocked(keep)
	c.durDirent, c.durData = exists, data
	c.exists = copyDirents(exists)
	c.data = copyContents(data)
	c.journal = nil
	c.gen++
}

// replayLocked computes the post-crash state after the first keep
// journaled ops hit stable storage.
func (c *CrashFS) replayLocked(keep int) (map[string]bool, map[string][]byte) {
	exists := copyDirents(c.durDirent)
	data := copyContents(c.durData)
	for _, op := range c.journal[:keep] {
		switch op.kind {
		case opCreate:
			exists[op.name] = true
			if _, ok := data[op.name]; !ok {
				data[op.name] = nil
			}
		case opWrite:
			data[op.name] = applyWrite(data[op.name], op.off, op.data)
		case opRename:
			delete(exists, op.name)
			exists[op.to] = true
			data[op.to] = data[op.name]
			delete(data, op.name)
		case opRemove:
			delete(exists, op.name)
			delete(data, op.name)
		}
	}
	// Contents of files with no surviving directory entry are gone.
	for name := range data {
		if !exists[name] {
			delete(data, name)
		}
	}
	return exists, data
}

func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.exists[name] {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		c.exists[name] = true
		c.data[name] = nil
		c.journal = append(c.journal, crashOp{kind: opCreate, name: name})
	}
	return &crashFile{fs: c, name: name, gen: c.gen}, nil
}

func (c *CrashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.exists[oldpath] {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(c.exists, oldpath)
	c.exists[newpath] = true
	c.data[newpath] = c.data[oldpath]
	delete(c.data, oldpath)
	c.journal = append(c.journal, crashOp{kind: opRename, name: oldpath, to: newpath})
	return nil
}

func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.exists[name] {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(c.exists, name)
	delete(c.data, name)
	c.journal = append(c.journal, crashOp{kind: opRemove, name: name})
	return nil
}

// SyncDir promotes every journaled directory operation (creations,
// renames, removals) to durable, in order. The model is flat, so one
// directory sync covers all entries, which matches how the log keeps
// every file in a single directory.
func (c *CrashFS) SyncDir(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rest := c.journal[:0]
	for _, op := range c.journal {
		switch op.kind {
		case opCreate:
			c.durDirent[op.name] = true
		case opRename:
			delete(c.durDirent, op.name)
			c.durDirent[op.to] = true
			if img, ok := c.durData[op.name]; ok {
				c.durData[op.to] = img
				delete(c.durData, op.name)
			}
		case opRemove:
			delete(c.durDirent, op.name)
			delete(c.durData, op.name)
		default:
			rest = append(rest, op)
		}
	}
	c.journal = rest
	return nil
}

// syncFile promotes name's current contents to durable and drops its
// journaled data ops. The directory entry stays un-synced: that is
// SyncDir's job.
func (c *CrashFS) syncFile(name string, gen int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return errHandleDead
	}
	if !c.exists[name] {
		return &os.PathError{Op: "sync", Path: name, Err: os.ErrNotExist}
	}
	c.durData[name] = append([]byte(nil), c.data[name]...)
	rest := c.journal[:0]
	for _, op := range c.journal {
		if op.name == name && op.kind == opWrite {
			continue
		}
		rest = append(rest, op)
	}
	c.journal = rest
	return nil
}

var errHandleDead = fmt.Errorf("crashfs: handle belongs to a killed incarnation")

type crashFile struct {
	fs     *CrashFS
	name   string
	gen    int
	pos    int64
	closed bool
}

func (f *crashFile) check() error {
	if f.closed {
		return os.ErrClosed
	}
	if f.gen != f.fs.gen {
		return errHandleDead
	}
	return nil
}

func (f *crashFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	data := f.fs.data[f.name]
	if f.pos >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	f.fs.data[f.name] = applyWrite(f.fs.data[f.name], f.pos, p)
	f.fs.journal = append(f.fs.journal, crashOp{
		kind: opWrite, name: f.name, off: f.pos, data: append([]byte(nil), p...),
	})
	f.pos += int64(len(p))
	return len(p), nil
}

func (f *crashFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(len(f.fs.data[f.name]))
	default:
		return 0, fmt.Errorf("crashfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("crashfs: negative seek")
	}
	f.pos = base + offset
	return f.pos, nil
}

func (f *crashFile) Sync() error {
	return f.fs.syncFile(f.name, f.gen)
}

func (f *crashFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

func applyWrite(data []byte, off int64, p []byte) []byte {
	end := off + int64(len(p))
	if int64(len(data)) < end {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:end], p)
	return data
}

func copyDirents(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyContents(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}
