package db

import (
	"fmt"
)

// Compact rewrites the persistence log so it holds exactly one record per
// live key (its latest version), reclaiming the space of overwritten
// versions. The paper's stationary computer runs for long stretches with
// every write appended; compaction keeps recovery time proportional to the
// key count rather than the write count.
//
// The rewrite goes through a temporary file followed by an atomic rename
// and a directory sync, so a crash during compaction leaves either the
// old or the new log, never a mix — and the rename itself cannot be lost
// to an un-synced directory. The compacted log carries the same store
// epoch: compaction is not a restart and must not fence clients.
//
// Compact is a no-op (and returns 0) on an in-memory store. It blocks
// writers for its duration; it is intended for quiet moments (the
// mobile-computing workload has plenty: overnight).
func (s *Store) Compact() (reclaimed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return 0, nil
	}
	if s.failed != nil {
		return 0, fmt.Errorf("%w: %v", ErrFailed, s.failed)
	}
	// Make every appended record visible first: the rewrite below copies
	// s.items, which must include any group-commit entries in flight.
	s.drainLocked()
	if s.failed != nil {
		return 0, fmt.Errorf("%w: %v", ErrFailed, s.failed)
	}

	oldSize := s.log.healthy
	path := s.log.path
	epoch := s.log.Epoch()
	tmpPath := path + ".compact"

	// A crash mid-compaction can leave the temporary file behind, torn
	// inside its header (OpenLogFS refuses it) or holding records the
	// rewrite would only partly overwrite. It is ours: start empty.
	s.log.fs.Remove(tmpPath)
	tmp, err := OpenLogFS(s.log.fs, tmpPath)
	if err != nil {
		return 0, fmt.Errorf("db: compact: %w", err)
	}
	if err := tmp.SetEpoch(epoch); err != nil {
		tmp.Close()
		s.log.fs.Remove(tmpPath)
		return 0, fmt.Errorf("db: compact: %w", err)
	}
	// Write the latest version of every key. Iteration order does not
	// matter for correctness: each key appears exactly once.
	for _, it := range s.items {
		if err := tmp.Append(Record{Key: it.Key, Value: it.Value, Version: it.Version}); err != nil {
			tmp.Close()
			s.log.fs.Remove(tmpPath)
			return 0, fmt.Errorf("db: compact append: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.log.fs.Remove(tmpPath)
		return 0, fmt.Errorf("db: compact sync: %w", err)
	}
	newSize := tmp.healthy
	if err := tmp.Close(); err != nil {
		s.log.fs.Remove(tmpPath)
		return 0, err
	}

	// Swap: close the old log, rename over it, sync the directory so the
	// rename survives a crash, and reopen positioned at the end of the
	// compacted contents.
	fs := s.log.fs
	if err := s.log.Close(); err != nil {
		fs.Remove(tmpPath)
		return 0, err
	}
	if err := fs.Rename(tmpPath, path); err != nil {
		// The old log file was closed but still intact on disk; reopen it
		// so the store keeps working. The contents (and so the logical
		// offsets) are unchanged, but the handle is new, so the generation
		// must still advance to fence any round pinning the closed one.
		if reopened, rerr := reopenAtEndFS(fs, path); rerr == nil {
			s.swapLogLocked(reopened)
		} else {
			// Without a log handle the store cannot persist anything it
			// acknowledges; fail closed rather than silently going
			// in-memory.
			s.log = nil
			s.failLocked(rerr)
		}
		return 0, fmt.Errorf("db: compact rename: %w", err)
	}
	if err := fs.SyncDir(path); err != nil {
		return 0, fmt.Errorf("db: compact dir sync: %w", err)
	}
	reopened, err := reopenAtEndFS(fs, path)
	if err != nil {
		s.log = nil
		s.failLocked(err)
		return 0, err
	}
	s.swapLogLocked(reopened)
	return oldSize - newSize, nil
}

// swapLogLocked installs a replacement log handle after Compact's
// rename (or its recovery path) and moves the group-commit machinery
// into the new file's coordinate space. Bumping gen fences every offset
// captured before the swap: stale waiters (all satisfied — the caller
// drained first) stop comparing old-space offsets against the new ones,
// and a stale leader discards its round instead of folding a
// pre-compaction tail into the fresh synced/applied or writing through
// the closed old handle. The caller holds s.mu.
func (s *Store) swapLogLocked(l *Log) {
	s.log = l
	s.gc.mu.Lock()
	s.gc.gen++
	s.gc.synced = l.healthy
	s.gc.applied = l.healthy
	s.gc.tail = l.healthy
	s.gc.cond.Broadcast()
	s.gc.mu.Unlock()
}

// reopenAtEndFS opens the log and replays it purely to position the
// write offset after the last valid record (contents are already in
// memory). The epoch in the header is read back, not bumped: only
// db.Open bumps.
func reopenAtEndFS(fs FS, path string) (*Log, error) {
	log, err := OpenLogFS(fs, path)
	if err != nil {
		return nil, err
	}
	if err := log.Replay(func(Record) {}); err != nil {
		log.Close()
		return nil, err
	}
	return log, nil
}

// LogSize returns the current byte size of the healthy log prefix
// (records only, excluding the file header), or 0 for an in-memory
// store. Callers use it to decide when to Compact.
func (s *Store) LogSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log == nil {
		return 0
	}
	return s.log.healthy - fileHeaderSize
}
