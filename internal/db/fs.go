package db

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the slice of a filesystem the log needs. The default
// implementation (osFS) goes to the real OS; CrashFS (crashfs.go)
// implements the same surface fully in memory with deterministic
// power-cut semantics, and tests wrap either with fault injectors.
//
// SyncDir is the operation POSIX makes easy to forget: creating or
// renaming a file reaches stable storage only once the *parent
// directory* has been fsynced. Without it a crash can lose the file
// itself even though its contents were synced.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the given flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir fsyncs the directory containing name, making its directory
	// entries (creations, renames, removals) durable.
	SyncDir(name string) error
}

// File is the handle surface the log uses; *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
}

// OSFS returns the real filesystem.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Dir(name))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
