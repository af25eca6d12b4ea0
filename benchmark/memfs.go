package main

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"mobirep/internal/db"
)

// memFS is the log device of pair_write_fanout: a db.FS that keeps files
// in memory. The store makes every write, fsync and directory sync call
// it would make on a disk, and they are counted, but none reaches a
// device — a sandbox disk's fsync (≈150 µs here, moving 12 % run to run)
// would hide the program. Files are chains of fixed chunks so a growing
// log never copies what it already holds.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData

	syncs    atomic.Int64
	dirSyncs atomic.Int64
}

const memChunk = 1 << 20

type memData struct {
	mu     sync.Mutex
	chunks [][]byte
	size   int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

// bytes returns the memory the files hold, so heap_mb can leave the
// harness's own device out.
func (fs *memFS) bytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, d := range fs.files {
		d.mu.Lock()
		n += int64(len(d.chunks)) * memChunk
		d.mu.Unlock()
	}
	return n
}

func (fs *memFS) OpenFile(name string, flag int, _ os.FileMode) (db.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		d = &memData{}
		fs.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.mu.Lock()
		d.chunks, d.size = nil, 0
		d.mu.Unlock()
	}
	return &memFile{fs: fs, d: d}, nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(fs.files, oldpath)
	fs.files[newpath] = d
	return nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

func (fs *memFS) SyncDir(string) error {
	fs.dirSyncs.Add(1)
	return nil
}

type memFile struct {
	fs     *memFS
	d      *memData
	off    int64
	closed bool
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.off >= f.d.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && f.off < f.d.size {
		c := f.d.chunks[f.off/memChunk]
		in := f.off % memChunk
		end := int64(memChunk)
		if left := f.d.size - (f.off - in); left < end {
			end = left
		}
		m := copy(p[n:], c[in:end])
		n += m
		f.off += int64(m)
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	n := 0
	for n < len(p) {
		ci := int(f.off / memChunk)
		for ci >= len(f.d.chunks) {
			f.d.chunks = append(f.d.chunks, make([]byte, memChunk))
		}
		m := copy(f.d.chunks[ci][f.off%memChunk:], p[n:])
		n += m
		f.off += int64(m)
	}
	if f.off > f.d.size {
		f.d.size = f.off
	}
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += f.d.size
	default:
		return 0, errors.New("memfs: bad whence")
	}
	if offset < 0 {
		return 0, errors.New("memfs: negative offset")
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if size < 0 {
		return errors.New("memfs: negative size")
	}
	need := int((size + memChunk - 1) / memChunk)
	for len(f.d.chunks) < need {
		f.d.chunks = append(f.d.chunks, make([]byte, memChunk))
	}
	f.d.chunks = f.d.chunks[:need]
	if size < f.d.size && need > 0 {
		// Bytes past the new end must read as zero if the file grows again.
		tail := f.d.chunks[need-1][size-int64(need-1)*memChunk:]
		for i := range tail {
			tail[i] = 0
		}
	}
	f.d.size = size
	return nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return os.ErrClosed
	}
	f.fs.syncs.Add(1)
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}
