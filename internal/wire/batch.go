package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"mobirep/internal/core"
)

// Batch messages implement the section 7.2 premise that "multiple data
// items can be remotely read in one connection": a joint read sends one
// control message naming every missing key and receives one data message
// carrying every value (with per-entry allocation flags and piggybacked
// windows), instead of a message pair per key.
//
// The resync pair reuses the same codec for warm reattachment: after a
// link blip the mobile computer declares the copies it still holds (keys
// plus cached version stamps) in one control message, and the stationary
// computer re-asserts the subscriptions and answers with one data message
// that revalidates current copies (NotModified, no payload) and re-ships
// only the keys that changed while the client was away.

// The batch kinds live at 20+ rather than extending the singleton range:
// they were renumbered when the frame layout changed (see batchFormat),
// so a pre-epoch peer — which knew the batch kinds only at their old
// values — rejects a modern frame as an unknown kind instead of
// misparsing the inserted epoch bytes as a key count.
const (
	// KindMultiReadReq is a joint read request (control message) listing
	// the keys the mobile computer is missing.
	KindMultiReadReq Kind = 20 + iota
	// KindMultiReadResp is the joint response (one data message) carrying
	// every requested item.
	KindMultiReadResp
	// KindResyncReq declares, after a reattach, the copies the MC still
	// holds: Keys plus their cached Versions (control message).
	KindResyncReq
	// KindResyncResp answers a resync: per held key either NotModified
	// (the cached copy is current) or the fresh item (data message).
	KindResyncResp
)

// batchFormat versions the batch frame layout and sits in the byte right
// after the kind. A decoder rejects any format it does not know, so a
// peer speaking a different layout fails loudly instead of silently
// shifting every later field. Any future layout change must bump this
// constant (and renumber the kinds if the change must also be rejected
// by peers predating the format byte itself).
//
// Format 3 added the request id (a uvarint) after the epoch; format 2 had
// the 8-byte store epoch after the format byte; format 1 (no epoch, no
// format byte) used kinds 10–13. Only format 3 is spoken.
const batchFormat = 3

// isBatchKind reports whether k uses the batch codec.
func isBatchKind(k Kind) bool {
	return k >= KindMultiReadReq && k <= KindResyncResp
}

// Entry is one item inside a batch message.
type Entry struct {
	// Key names the data item.
	Key string
	// Value and Version carry the item (responses only).
	Value   []byte
	Version uint64
	// Allocate is set when this entry's copy should be installed at the
	// MC; Window then carries that key's sliding window for the handoff.
	Allocate bool
	Window   core.Window
	// NotModified is set when the client's version hint matched: the
	// payload is omitted and the client's archived value is current.
	NotModified bool
}

// Batch is a joint protocol message.
type Batch struct {
	// Kind is KindMultiReadReq or KindMultiReadResp.
	Kind Kind
	// Epoch carries the server's store epoch on responses (ResyncResp,
	// MultiReadResp); 0 means no epoch (in-memory store, or a request).
	// Clients fence on it: a changed epoch means the authority restarted
	// and warm state cannot be trusted.
	Epoch uint64
	// ID names a joint read: the reader (an MC, or a relay's parent face)
	// draws it for a MultiReadReq, and the MultiReadResp answering it
	// echoes it. 0 on the resync pair.
	ID uint64
	// Keys lists the requested keys (requests only).
	Keys []string
	// Versions, parallel to Keys, carries revalidation hints: the version
	// the client last saw for each key (0 = no hint). A server holding
	// exactly that version answers NotModified instead of shipping the
	// payload again.
	Versions []uint64
	// Windows, parallel to Keys when set, declares the sliding window the
	// MC kept for each copy it holds: a ResyncReq's, and the MultiReadReq
	// a relay forwards for one. Each station on the path decides the key
	// over it. A zero Window declares none; nil declares none at all, and
	// the frame is the one a batch without the field encodes to.
	Windows []core.Window
	// Entries carries the items (responses only), one per requested key
	// in request order. A MultiReadResp with none refuses the joint read,
	// as a ReadFail refuses a singleton: a relay that could not freshen
	// every key sends it.
	Entries []Entry
}

// MaxBatch is the most keys, and the most entries, one batch frame
// carries: the encoder and the decoder both refuse more.
const MaxBatch = 1 << 12

// declaresWindows is the key count's top bit: set, each key's hint is
// followed by its declared window, one byte of size and the packed bits.
// A decoder that predates it reads a count above MaxBatch and refuses the
// frame.
const declaresWindows = 1 << 15

// AppendEncodeBatch serializes b, appending the frame to dst and
// returning the extended buffer; like AppendEncode, hot paths append into
// a pooled buffer (GetBuf/PutBuf). On error dst is returned unchanged.
func AppendEncodeBatch(dst []byte, b Batch) ([]byte, error) {
	if !isBatchKind(b.Kind) {
		return dst, fmt.Errorf("wire: kind %v is not a batch kind", b.Kind)
	}
	if len(b.Keys) > MaxBatch || len(b.Entries) > MaxBatch {
		return dst, fmt.Errorf("wire: batch exceeds %d items", MaxBatch)
	}
	if len(b.Versions) != 0 && len(b.Versions) != len(b.Keys) {
		return dst, fmt.Errorf("wire: %d version hints for %d keys", len(b.Versions), len(b.Keys))
	}
	if len(b.Windows) != 0 && len(b.Windows) != len(b.Keys) {
		return dst, fmt.Errorf("wire: %d windows for %d keys", len(b.Windows), len(b.Keys))
	}
	for _, k := range b.Keys {
		if len(k) > maxKeyLen {
			return dst, fmt.Errorf("wire: key length %d exceeds %d", len(k), maxKeyLen)
		}
	}
	for _, e := range b.Entries {
		if len(e.Key) > maxKeyLen {
			return dst, fmt.Errorf("wire: entry key length %d exceeds %d", len(e.Key), maxKeyLen)
		}
	}
	out := append(dst, byte(b.Kind), batchFormat)
	out = binary.LittleEndian.AppendUint64(out, b.Epoch)
	out = binary.AppendUvarint(out, b.ID)
	count := uint16(len(b.Keys))
	if len(b.Windows) != 0 {
		count |= declaresWindows
	}
	out = binary.LittleEndian.AppendUint16(out, count)
	for i, k := range b.Keys {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
		hint := uint64(0)
		if i < len(b.Versions) {
			hint = b.Versions[i]
		}
		out = binary.LittleEndian.AppendUint64(out, hint)
		if len(b.Windows) != 0 {
			out = append(out, uint8(b.Windows[i].Size()))
			out = b.Windows[i].AppendPacked(out)
		}
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b.Entries)))
	for _, e := range b.Entries {
		flags := byte(0)
		if e.Allocate {
			flags |= 1
		}
		if e.NotModified {
			flags |= 2
		}
		out = append(out, flags)
		out = binary.LittleEndian.AppendUint64(out, e.Version)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(e.Key)))
		out = append(out, e.Key...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Value)))
		out = append(out, e.Value...)
		out = binary.LittleEndian.AppendUint16(out, uint16(e.Window.Size()))
		out = e.Window.AppendPacked(out)
	}
	return out, nil
}

// DecodeBatch parses a frame produced by AppendEncodeBatch. The result
// owns its memory: it is DecodeBatchBorrowed over a private copy of the
// frame, which every key and value aliases.
func DecodeBatch(p []byte) (Batch, error) {
	return DecodeBatchBorrowed(bytes.Clone(p))
}

// Smallest encodings of a key and of an entry: they bound the slices a
// decode allocates by the bytes the frame actually holds.
const (
	minKeyBytes   = 2 + 8
	minEntryBytes = 1 + 8 + 2 + 4 + 2
)

// DecodeBatchBorrowed parses a frame produced by AppendEncodeBatch without
// copying: every key and value aliases p (windows are values and alias
// nothing), as DecodeBorrowed's fields do, so the batch is valid only
// while p is. It allocates the Keys, Versions and Entries arrays, each
// once, at its exact length.
func DecodeBatchBorrowed(p []byte) (Batch, error) {
	var b Batch
	r := reader{p: p}
	kind, err := r.byte()
	if err != nil {
		return b, err
	}
	b.Kind = Kind(kind)
	if !isBatchKind(b.Kind) {
		return b, fmt.Errorf("wire: kind %d is not a batch kind", kind)
	}
	format, err := r.byte()
	if err != nil {
		return b, err
	}
	if format != batchFormat {
		return b, fmt.Errorf("wire: unsupported batch format %d (want %d)", format, batchFormat)
	}
	if b.Epoch, err = r.uint64(); err != nil {
		return b, err
	}
	var n int
	if b.ID, n = binary.Uvarint(r.p[r.off:]); n <= 0 {
		return b, errBadID
	}
	r.off += n
	nKeys, windows, err := r.keyCount()
	if err != nil {
		return b, err
	}
	if nKeys > 0 {
		b.Keys, b.Versions = make([]string, nKeys), make([]uint64, nKeys)
		if windows {
			b.Windows = make([]core.Window, nKeys)
		}
	}
	for i := range b.Keys {
		if b.Keys[i], err = r.str16(); err != nil {
			return b, err
		}
		if b.Versions[i], err = r.uint64(); err != nil {
			return b, err
		}
		if windows {
			if b.Windows[i], err = r.window(); err != nil {
				return b, err
			}
		}
	}
	n16, err := r.uint16()
	if err != nil {
		return b, err
	}
	nEntries, err := r.count(int(n16), minEntryBytes)
	if err != nil {
		return b, err
	}
	if nEntries > 0 {
		b.Entries = make([]Entry, nEntries)
	}
	for i := range b.Entries {
		e := &b.Entries[i]
		flags, err := r.byte()
		if err != nil {
			return b, err
		}
		if flags > 3 {
			return b, fmt.Errorf("wire: bad entry flags %#x", flags)
		}
		e.Allocate = flags&1 != 0
		e.NotModified = flags&2 != 0
		if e.Version, err = r.uint64(); err != nil {
			return b, err
		}
		if e.Key, err = r.str16(); err != nil {
			return b, err
		}
		if e.Value, err = r.bytes32(); err != nil {
			return b, err
		}
		wlen, err := r.uint16()
		if err != nil {
			return b, err
		}
		if e.Window, err = r.packed(int(wlen)); err != nil {
			return b, err
		}
	}
	if !r.done() {
		return b, fmt.Errorf("wire: %d trailing bytes after batch", r.remaining())
	}
	return b, nil
}

// IsBatchFrame reports whether the frame starts with a batch kind, letting
// receivers dispatch between DecodeBorrowed and DecodeBatchBorrowed.
func IsBatchFrame(p []byte) bool {
	return len(p) > 0 && isBatchKind(Kind(p[0]))
}

// reader is a tiny bounds-checked cursor over a frame.
type reader struct {
	p   []byte
	off int
}

func (r *reader) remaining() int { return len(r.p) - r.off }
func (r *reader) done() bool     { return r.off == len(r.p) }

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, errTruncated
	}
	out := r.p[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) uint16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// count checks a batch's item count, n: at most MaxBatch, and no more
// items of at least min bytes each than the frame has bytes left.
func (r *reader) count(n, min int) (int, error) {
	if n > MaxBatch {
		return 0, fmt.Errorf("wire: batch exceeds %d items", MaxBatch)
	}
	if n*min > r.remaining() {
		return 0, errTruncated
	}
	return n, nil
}

// keyCount reads a batch's key count and whether each key declares a
// window, which costs it one byte more at least.
func (r *reader) keyCount() (int, bool, error) {
	n, err := r.uint16()
	if err != nil {
		return 0, false, err
	}
	if n&declaresWindows == 0 {
		n, err := r.count(int(n), minKeyBytes)
		return n, false, err
	}
	nKeys, err := r.count(int(n&^declaresWindows), minKeyBytes+1)
	return nKeys, true, err
}

// window reads a key's declared window: a byte of size, then its packed
// bits.
func (r *reader) window() (core.Window, error) {
	n, err := r.byte()
	if err != nil {
		return core.Window{}, err
	}
	return r.packed(int(n))
}

// packed reads the packed bits of a window of n requests. The bits are
// copied out: the frame is never written.
func (r *reader) packed(n int) (core.Window, error) {
	if n > core.MaxWindow {
		// Refused before the take, so a size past the bound never reads
		// into the bytes after it.
		return core.Window{}, fmt.Errorf("wire: bad window: %w", core.CheckWindowSize(n))
	}
	b, err := r.take((n + 7) / 8)
	if err != nil {
		return core.Window{}, err
	}
	w, err := core.UnpackWindow(n, b)
	if err != nil {
		return core.Window{}, fmt.Errorf("wire: bad window: %w", err)
	}
	return w, nil
}

// str16 reads a length-prefixed key, aliasing the frame.
func (r *reader) str16() (string, error) {
	n, err := r.uint16()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return borrowString(b), nil
}

// bytes32 reads a length-prefixed value, aliasing the frame; an empty
// value is nil.
func (r *reader) bytes32() ([]byte, error) {
	b, err := r.take(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(b)
	raw, err := r.take(int(n))
	if err != nil || len(raw) == 0 {
		return nil, err
	}
	// Full slice expression: an append through the alias must never grow
	// into the rest of the frame.
	return raw[:len(raw):len(raw)], nil
}
