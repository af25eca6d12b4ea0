package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync/atomic"
)

// Log is an append-only record log with per-record CRC32C checksums,
// preceded by a fixed checksummed file header that carries the store
// epoch (see Store.Epoch). Format:
//
//	header (16 bytes):
//	    magic   "MRL1"
//	    uint64  store epoch (little endian)
//	    uint32  CRC32C of magic+epoch
//	records, each:
//	    uint32  payload length (little endian)
//	    uint32  CRC32C of the payload
//	    payload:
//	        uint64 version
//	        uint16 key length, key bytes
//	        uint32 value length, value bytes
//
// A torn final record (partial write at crash) is tolerated on replay:
// replay stops at the first short or corrupt record and truncates the
// tail so the log stays consistent. A non-empty file that does not start
// with a valid header is not a log, and is never replayed or rewritten.
type Log struct {
	fs      FS
	f       File
	path    string
	w       *bufio.Writer
	healthy int64 // byte offset of the last fully valid record's end
	// appended mirrors healthy for readers outside the store lock.
	appended atomic.Int64
	epoch    uint64
	// scratch is Append's framing buffer, reused from record to record.
	scratch []byte
}

// Record is one logged write.
type Record struct {
	Key     string
	Value   []byte
	Version uint64
}

const (
	logHeaderSize  = 8 // per record: length + crc
	fileHeaderSize = 16
)

var logMagic = [4]byte{'M', 'R', 'L', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptHeader reports a non-empty file that does not start with a
// valid log header: too short to hold one, no magic (not a log at all,
// e.g. a mistyped path), or the right magic with a failing checksum (the
// epoch is unknown, so opening it would risk violating epoch
// monotonicity). The file is left untouched; operator intervention (or
// deleting the file) is required.
var ErrCorruptHeader = errors.New("db: corrupt log file header")

// OpenLogFS opens (creating if needed) the log at path on fs. An empty
// file is a fresh log: it gets a header with epoch 0, synced along with
// its parent directory so the file cannot vanish at a crash. Any other
// file must start with a valid header, or OpenLogFS fails with
// ErrCorruptHeader without writing to it.
func OpenLogFS(fs FS, path string) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: open log: %w", err)
	}
	l := &Log{fs: fs, f: f, path: path, w: bufio.NewWriter(f)}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("db: open log: %w", err)
	}
	l.healthy = fileHeaderSize
	l.appended.Store(fileHeaderSize)
	if size == 0 {
		// Fresh file: write the epoch-0 header and make both the header
		// and the directory entry durable before anyone relies on it.
		if err := l.writeHeader(0); err != nil {
			f.Close()
			return nil, err
		}
		if err := fs.SyncDir(path); err != nil {
			f.Close()
			return nil, fmt.Errorf("db: sync log dir: %w", err)
		}
		return l, nil
	}
	var hdr [fileHeaderSize]byte
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %s is %d bytes, shorter than a header", ErrCorruptHeader, path, size)
		}
		return nil, fmt.Errorf("db: read log header: %w", err)
	}
	if [4]byte(hdr[0:4]) != logMagic || crc32.Checksum(hdr[0:12], castagnoli) != binary.LittleEndian.Uint32(hdr[12:16]) {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrCorruptHeader, path)
	}
	l.epoch = binary.LittleEndian.Uint64(hdr[4:12])
	return l, nil
}

// Epoch returns the store epoch recorded in the log header (0 for a
// freshly created log that has not been bumped yet).
func (l *Log) Epoch() uint64 { return l.epoch }

// writeHeader rewrites the file header in place with the given epoch
// and syncs it to stable storage. The header fits one sector, and the
// checksum catches the torn-write case regardless.
func (l *Log) writeHeader(epoch uint64) error {
	var hdr [fileHeaderSize]byte
	copy(hdr[0:4], logMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:12], epoch)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(hdr[0:12], castagnoli))
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("db: write log header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("db: sync log header: %w", err)
	}
	if _, err := l.f.Seek(l.healthy, io.SeekStart); err != nil {
		return err
	}
	l.epoch = epoch
	return nil
}

// SetEpoch durably rewrites the header epoch in place.
func (l *Log) SetEpoch(epoch uint64) error { return l.writeHeader(epoch) }

// Replay scans the log from the end of the header, invoking fn for
// every valid record in order. It stops silently at a torn or corrupt
// tail, records the healthy prefix length, and truncates the file to it
// so subsequent appends are safe. A record length is rejected as corrupt
// if it exceeds the bytes actually remaining in the file, so a single
// flipped length header cannot trigger a giant allocation. Only short
// reads count as a tear: a genuine I/O error fails the replay, since
// truncating on one would discard records that are intact on disk.
func (l *Log) Replay(fn func(Record)) error {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := l.f.Seek(fileHeaderSize, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(l.f)
	offset := int64(fileHeaderSize)
	for {
		var hdr [logHeaderSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				// A real read error is not a torn tail: truncating here
				// would discard records that are intact on disk.
				return fmt.Errorf("db: replay: %w", err)
			}
			break // clean EOF or torn header: stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(length) > size-offset-logHeaderSize {
			break // claims more bytes than the file holds: corrupt
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("db: replay: %w", err)
			}
			break // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt record
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		fn(rec)
		offset += logHeaderSize + int64(length)
	}
	l.healthy = offset
	l.appended.Store(offset)
	if err := l.f.Truncate(offset); err != nil {
		return fmt.Errorf("db: truncate torn tail: %w", err)
	}
	if _, err := l.f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	l.w = bufio.NewWriter(l.f)
	return nil
}

// Append writes one record and flushes it to the OS. Durability is the
// caller's business: Sync (or the store's sync policy) decides when the
// record survives a power cut.
func (l *Log) Append(rec Record) error {
	l.scratch = appendFramedRecord(l.scratch[:0], rec)
	return l.AppendFramed(l.scratch)
}

// AppendFramed writes pre-framed record bytes (appendFramedRecord output,
// possibly several records concatenated) with a single write and
// flushes them to the OS. The group committer uses it to land a whole
// batch in one syscall.
func (l *Log) AppendFramed(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if _, err := l.w.Write(buf); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.healthy += int64(len(buf))
	l.appended.Store(l.healthy)
	return nil
}

// appendFramedRecord appends one record to dst exactly as it sits on
// disk — the length+CRC header followed by the encoded payload — writing
// the payload straight into dst and the header over the gap left for it.
func appendFramedRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	// One growth for the whole record when dst lacks room for it (a group
	// buffer's first rounds, a batch larger than any before): growing it
	// field by field would allocate per field.
	dst = slices.Grow(dst, logHeaderSize+8+2+len(rec.Key)+4+len(rec.Value))
	dst = append(dst, make([]byte, logHeaderSize)...)
	dst = appendRecord(dst, rec)
	payload := dst[start+logHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Sync forces the log contents to stable storage.
func (l *Log) Sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// fsync syncs the file without touching the buffered writer; Append and
// AppendFramed flush on every call, so between appends the bufio buffer
// is always empty and fsync covers everything written so far.
func (l *Log) fsync() error { return l.f.Sync() }

// Close flushes, syncs to stable storage, and closes the underlying
// file. Without the sync a crash right after a clean shutdown could
// still lose the buffered tail — Close must leave nothing volatile.
func (l *Log) Close() error {
	syncErr := l.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// appendRecord appends rec's payload encoding to dst.
func appendRecord(dst []byte, rec Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rec.Version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Value)))
	return append(dst, rec.Value...)
}

var errShortRecord = errors.New("db: short record payload")

func decodeRecord(p []byte) (Record, error) {
	if len(p) < 8+2 {
		return Record{}, errShortRecord
	}
	var rec Record
	rec.Version = binary.LittleEndian.Uint64(p[:8])
	p = p[8:]
	klen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if len(p) < klen+4 {
		return Record{}, errShortRecord
	}
	rec.Key = string(p[:klen])
	p = p[klen:]
	vlen := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	if len(p) != vlen {
		return Record{}, errShortRecord
	}
	rec.Value = append([]byte(nil), p...)
	return rec, nil
}
