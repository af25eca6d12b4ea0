// Package wire defines the binary message format spoken between the
// mobile computer and the stationary computer in the replica protocol of
// section 4. Four message kinds match the paper's communication events
// exactly:
//
//   - ReadReq (control): the MC forwards a read to the SC.
//   - ReadResp (data): the SC returns the item; the Allocate flag plus the
//     piggybacked window implement the copy allocation of section 4.
//   - WriteProp (data): the SC propagates a committed write to a
//     subscribed MC.
//   - DeleteReq (control): deallocation. Sent MC -> SC when the window
//     turns write-majority (carrying the window for the ownership
//     handoff), or SC -> MC under the SW1 optimization, where a write is
//     answered by dropping the copy instead of propagating data.
//
// Three further kinds carry liveness and admission traffic, which exists
// only because real mobile links die silently and real servers have
// finite capacity — they are not part of the paper's cost model and are
// not metered as protocol traffic:
//
//   - Ping (MC -> SC): keepalive probe; Version carries a sequence
//     number. The SC refreshes the session's last-seen time.
//   - Pong (SC -> MC): echo of a Ping, same sequence number.
//   - Busy (SC -> MC): overload signal; Key carries the reason and
//     Version a retry-after hint in milliseconds (see KindBusy).
//
// A relay adds one more, ReadFail (SC -> MC): the answer to a read its
// upstream fetch could not serve (see KindReadFail).
//
// The encoding is a fixed header plus length-prefixed fields; window bits
// are packed eight per byte, and a request id, when set, follows the
// version as a uvarint announced by flag bit 2. DecodeBorrowed rejects
// malformed frames rather than guessing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"mobirep/internal/core"
)

// Kind discriminates protocol messages.
type Kind uint8

const (
	// KindReadReq is the MC's remote read request (control message).
	KindReadReq Kind = iota + 1
	// KindReadResp is the SC's read response (data message).
	KindReadResp
	// KindWriteProp is the SC's write propagation (data message).
	KindWriteProp
	// KindDeleteReq is the deallocation request (control message).
	KindDeleteReq
	// KindPing is the MC's keepalive probe; Version carries the sequence
	// number. Liveness traffic, not metered as protocol cost.
	KindPing
	// KindPong is the SC's echo of a Ping, same sequence number.
	KindPong
	// KindBusy is the SC's overload signal (SC -> MC): the server refused
	// an attach (admission control) or is shedding this session (memory
	// watermark). Key carries the reason ("full", "rate", "shed",
	// "slow-consumer"), Version a retry-after hint in milliseconds that
	// the client's reconnect supervisor honors in its backoff —
	// distinguishing "server full, come back later" from "server dead".
	// Like Ping/Pong it is liveness traffic, not metered as protocol cost.
	KindBusy
	// KindAttachResp is the SC's greeting on a successful attach (SC ->
	// MC): Version carries the server's store epoch, durably bumped on
	// every process start. A client that sees the epoch change knows the
	// authority restarted and must fence: drop warm state and resync cold
	// (see replica.ErrEpochChanged). Sent only by servers with a
	// persistent store (epoch > 0); best-effort — the authoritative fence
	// is the epoch echoed on every ResyncResp. Liveness traffic, not
	// metered as protocol cost.
	KindAttachResp
	// KindReadFail answers a ReadReq the SC could not serve (SC -> MC): a
	// relay whose upstream fetch failed. Key names the item and ID the
	// request; there is no value. It fails exactly the read with that id.
	// Not metered as protocol cost.
	KindReadFail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindReadReq:
		return "read-req"
	case KindReadResp:
		return "read-resp"
	case KindWriteProp:
		return "write-prop"
	case KindDeleteReq:
		return "delete-req"
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	case KindBusy:
		return "busy"
	case KindAttachResp:
		return "attach-resp"
	case KindReadFail:
		return "read-fail"
	case KindMultiReadReq:
		return "multi-read-req"
	case KindMultiReadResp:
		return "multi-read-resp"
	case KindResyncReq:
		return "resync-req"
	case KindResyncResp:
		return "resync-resp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Control reports whether the kind is a control message (cost omega);
// otherwise it is a data message (cost 1).
func (k Kind) Control() bool {
	return k == KindReadReq || k == KindDeleteReq
}

// Message is one protocol message.
type Message struct {
	// Kind discriminates the payload.
	Kind Kind
	// Key names the data item.
	Key string
	// Value is the item payload (ReadResp, WriteProp).
	Value []byte
	// Version is the item version (ReadResp, WriteProp).
	Version uint64
	// Allocate is set on a ReadResp that allocates a copy at the MC.
	Allocate bool
	// Window carries the sliding window on ownership handoffs
	// (allocating ReadResp and MC-originated DeleteReq); the zero Window
	// means none. It is a value: decoding and cloning copy it whole.
	Window core.Window
	// ID names a read request: the MC draws it for a ReadReq, and the
	// ReadResp or ReadFail answering that request echoes it. 0 means none.
	ID uint64
}

const maxKeyLen = 1<<16 - 1

// Clone returns a deep copy of m that shares no memory with the original.
// Handlers given a borrowed message (DecodeBorrowed) must clone it before
// retaining any part of it past the handler's return.
func (m Message) Clone() Message {
	if len(m.Key) > 0 {
		m.Key = string(append([]byte(nil), m.Key...))
	}
	if len(m.Value) > 0 {
		m.Value = append([]byte(nil), m.Value...)
	}
	return m
}

// AppendEncode serializes m, appending the frame to dst and returning the
// extended buffer (reallocated if dst lacks capacity, exactly like
// append). Hot paths append into a pooled buffer (GetBuf/PutBuf) so an
// encode allocates nothing. On error dst is returned unchanged.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	if len(m.Key) > maxKeyLen {
		return dst, fmt.Errorf("wire: key length %d exceeds %d", len(m.Key), maxKeyLen)
	}
	flags := byte(0)
	if m.Allocate {
		flags = 1
	}
	if m.ID != 0 {
		flags |= 2
	}
	dst = append(dst, byte(m.Kind), flags)
	dst = binary.LittleEndian.AppendUint64(dst, m.Version)
	if m.ID != 0 {
		dst = binary.AppendUvarint(dst, m.ID)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Key)))
	dst = append(dst, m.Key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Value)))
	dst = append(dst, m.Value...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(m.Window.Size()))
	return m.Window.AppendPacked(dst), nil
}

// Buf is a reusable encode buffer; see GetBuf.
type Buf struct {
	// B holds the encoded frame. Callers re-slice it to B[:0], append
	// with AppendEncode, and store the result back before PutBuf.
	B []byte
}

// maxPooledBuf caps the capacity of buffers kept in the pool so one huge
// value does not pin megabytes behind every future small frame.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 256)} }}

// GetBuf returns a pooled encode buffer for use with AppendEncode. The
// send paths of the replica package thread these through so steady-state
// encodes cost zero allocations. Return it with PutBuf once the frame has
// been handed to a transport (links never retain a frame after Send
// returns, so releasing right after Send is safe).
func GetBuf() *Buf { return bufPool.Get().(*Buf) }

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped rather than pooled.
func PutBuf(b *Buf) {
	if b == nil || cap(b.B) > maxPooledBuf {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}

var errTruncated = errors.New("wire: truncated message")
var errBadID = errors.New("wire: truncated or oversized request id")

// FrameKind peeks the message kind of an encoded frame — singleton or
// batch, both put the kind in byte 0 — without decoding it. ok is false
// for an empty frame. The transport's per-kind byte accounting uses this
// to classify traffic without paying for a decode.
func FrameKind(p []byte) (Kind, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return Kind(p[0]), true
}

// DecodeBorrowed parses a frame without copying: the returned message's
// Key and Value alias p directly (the Window is a value and aliases
// nothing). The message is only valid while p is — for
// transport handlers, until the handler returns. A handler that retains
// any part of the message must Clone it (or copy the fields it keeps)
// first.
func DecodeBorrowed(p []byte) (Message, error) {
	var m Message
	if len(p) < 2+8+2 {
		return m, errTruncated
	}
	m.Kind = Kind(p[0])
	if m.Kind < KindReadReq || m.Kind > KindReadFail {
		return m, fmt.Errorf("wire: unknown message kind %d", p[0])
	}
	flags := p[1]
	if flags > 3 {
		return m, fmt.Errorf("wire: bad flags %#x", flags)
	}
	m.Allocate = flags&1 != 0
	p = p[2:]
	m.Version = binary.LittleEndian.Uint64(p[:8])
	p = p[8:]
	if flags&2 != 0 {
		var k int
		if m.ID, k = binary.Uvarint(p); k <= 0 || len(p) < k+2 {
			return m, errBadID
		}
		p = p[k:]
	}
	klen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if len(p) < klen+4 {
		return m, errTruncated
	}
	m.Key = borrowString(p[:klen])
	p = p[klen:]
	vlen := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	if vlen > len(p) {
		return m, errTruncated
	}
	if vlen > 0 {
		// Full slice expression: an append through the alias must never
		// grow into the rest of the frame.
		m.Value = p[:vlen:vlen]
	}
	p = p[vlen:]
	if len(p) < 2 {
		return m, errTruncated
	}
	var err error
	m.Window, err = core.UnpackWindow(int(binary.LittleEndian.Uint16(p[:2])), p[2:])
	if err != nil {
		return m, fmt.Errorf("wire: bad window: %w", err)
	}
	return m, nil
}

// borrowString aliases b as a string without copying. The string is only
// valid while b's backing memory is.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
