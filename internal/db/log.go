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
)

// Log is the append end of the record log: per-record CRC32C checksums
// behind a fixed checksummed file header that carries the store epoch
// (see Store.Epoch). Format:
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
// A log is never written where it was replayed. Open reads the file
// (replayLog), stopping at the first short or corrupt record — the tail
// a crash tore — and writes what it read, one record per live key, to a
// fresh file under the next epoch, which replaces the old one
// (rewriteLog). The torn tail is simply not copied. A non-empty file
// that does not start with a valid header is not a log: the open fails
// and the file is neither replayed nor replaced.
type Log struct {
	f       File
	healthy int64 // byte offset of the last written record's end
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

// replayLog calls fn for every intact record of the log at path, in
// order, and returns the header's epoch. A missing or empty file is a
// fresh log at epoch 0. Replay stops silently at the first short or
// corrupt record. A record length is rejected as corrupt if it exceeds
// the bytes left in the file, so one flipped length cannot trigger a
// giant allocation. Only short reads count as a tear: a genuine I/O
// error fails the replay, since the rewrite would otherwise drop records
// that are intact on disk.
func replayLog(fs FS, path string, fn func(Record)) (epoch uint64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("db: open log: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size > 0 {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil || size == 0 {
		return 0, err
	}
	r := bufio.NewReader(f)
	var hdr [fileHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("%w: %s is %d bytes, shorter than a header", ErrCorruptHeader, path, size)
		}
		return 0, fmt.Errorf("db: read log header: %w", err)
	}
	if [4]byte(hdr[0:4]) != logMagic || crc32.Checksum(hdr[0:12], castagnoli) != binary.LittleEndian.Uint32(hdr[12:16]) {
		return 0, fmt.Errorf("%w: %s", ErrCorruptHeader, path)
	}
	epoch = binary.LittleEndian.Uint64(hdr[4:12])
	torn := func(err error) bool { return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) }
	for offset := int64(fileHeaderSize); ; {
		var rh [logHeaderSize]byte
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if torn(err) {
				return epoch, nil // clean EOF or torn header
			}
			return 0, fmt.Errorf("db: replay: %w", err)
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		if int64(length) > size-offset-logHeaderSize {
			return epoch, nil // claims more bytes than the file holds
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if torn(err) {
				return epoch, nil
			}
			return 0, fmt.Errorf("db: replay: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rh[4:8]) {
			return epoch, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return epoch, nil
		}
		fn(rec)
		offset += logHeaderSize + int64(length)
	}
}

// rewriteLog writes a fresh log holding epoch and one record per item to
// path+".compact", syncs it, renames it over path and syncs the
// directory, then opens it for appending at its end. The file at path is
// only ever replaced whole, by the rename, so a crash at any step leaves
// either the old log or the new one, and each holds the latest version
// of every key the old one held. A leftover path+".compact" is a crashed open's, torn or
// holding records the rewrite would only partly overwrite: it is removed
// first.
func rewriteLog(fs FS, path string, epoch uint64, items map[string]*record) (*Log, error) {
	tmp := path + ".compact"
	if err := fs.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("db: rewrite log: %w", err)
	}
	size, err := writeLogFile(fs, tmp, epoch, items)
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp) // best effort: the next open removes it too
		return nil, fmt.Errorf("db: rewrite log: %w", err)
	}
	if err := fs.SyncDir(path); err != nil {
		return nil, fmt.Errorf("db: rewrite log: sync dir: %w", err)
	}
	f, err := fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("db: open log: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("db: open log: %w", err)
	}
	return &Log{f: f, healthy: size}, nil
}

// writeLogFile creates name holding the header and one record per item,
// syncs and closes it, and returns its size.
func writeLogFile(fs FS, name string, epoch uint64, items map[string]*record) (int64, error) {
	f, err := fs.OpenFile(name, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	buf := binary.LittleEndian.AppendUint64(append([]byte(nil), logMagic[:]...), epoch)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	w.Write(buf) // a bufio.Writer's error is sticky: Flush reports it
	size := int64(len(buf))
	for _, r := range items {
		buf = appendFramedRecord(buf[:0], Record{Key: r.Key, Value: r.Value, Version: r.Version})
		w.Write(buf)
		size += int64(len(buf))
	}
	err = w.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return size, err
}

// appendFramed writes pre-framed record bytes (appendFramedRecord
// output, possibly several records concatenated) with a single write.
// The group committer uses it to land a whole batch in one syscall.
func (l *Log) appendFramed(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.healthy += int64(len(buf))
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

// Close syncs the file to stable storage and closes it. Without the sync
// a crash right after a clean shutdown could still lose the tail written
// under SyncNever — Close must leave nothing volatile.
func (l *Log) Close() error {
	syncErr := l.f.Sync()
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
