// Package transport carries wire frames between the mobile computer and
// the stationary computer. Two implementations exist:
//
//   - the in-memory pair, which delivers frames synchronously in the
//     sender's goroutine and is used by the simulator-equivalence
//     experiment (E13) and most tests;
//   - TCP links with length-prefixed frames, used by the mobirep-server
//     and mobirep-client executables.
//
// Both deliver frames reliably and in order per direction, matching the
// paper's assumption of a serialized request stream. The Chaos wrapper
// (chaos.go) deliberately breaks those guarantees — dropping, duplicating,
// delaying, and reordering frames from a seeded RNG — so the replica
// protocol can be tested under the unreliable mobile links the paper's
// setting actually implies.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes one received frame. Handlers must not block
// indefinitely; for the in-memory pair they run on the sender's goroutine.
//
// The frame is borrowed: it is only valid until the handler returns, after
// which the transport reuses its backing buffer for the next frame. A
// handler that retains the frame — or anything aliasing it, such as a
// wire.DecodeBorrowed message — past its return must copy first.
type Handler func(frame []byte)

// Link is one endpoint of a bidirectional frame pipe.
type Link interface {
	// Send transmits one frame to the peer. Implementations never retain
	// frame after Send returns (they copy if they must buffer), so callers
	// may immediately reuse the backing buffer — the contract that lets
	// the replica package encode every frame into a pooled buffer.
	Send(frame []byte) error
	// SetHandler installs the receive callback. It must be called before
	// the first frame arrives; for TCP links, before Start.
	SetHandler(h Handler)
	// Close tears the link down; subsequent Sends fail.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: link closed")

// ErrSlowConsumer is returned by Send when a link's bounded outbox
// (SetQueueLimit) overflows: the peer is not draining and the server will
// not buffer for it indefinitely. The link is already dead when Send
// returns this — the caller's onClose fires with it as the root cause.
var ErrSlowConsumer = errors.New("transport: slow consumer: outbox bound exceeded")

// memLink is one end of an in-memory pair.
type memLink struct {
	mu      sync.Mutex
	peer    *memLink
	handler Handler
	closed  bool
}

// NewMemPair returns two connected in-memory links. Send on one delivers
// synchronously to the other's handler before returning, so a cascade of
// protocol messages completes before the original Send returns — the
// property the simulator-equivalence experiment relies on.
func NewMemPair() (Link, Link) {
	a, b := &memLink{}, &memLink{}
	a.peer, b.peer = b, a
	return a, b
}

func (l *memLink) Send(frame []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	peer := l.peer
	l.mu.Unlock()

	peer.mu.Lock()
	h := peer.handler
	closed := peer.closed
	peer.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if h == nil {
		return errors.New("transport: peer has no handler")
	}
	// The handler runs synchronously inside Send and borrows the sender's
	// bytes directly — zero copies. The Handler contract (copy if you
	// retain) is what makes this safe.
	recordSend(frame)
	recordRecv(frame)
	h(frame)
	return nil
}

func (l *memLink) SetHandler(h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler = h
}

func (l *memLink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// TCPLink frames messages over a TCP connection as a uint32 length prefix
// followed by the payload.
//
// Every link coalesces: Send copies the frame into a small outbox that a
// background flusher, started with the read loop, drains with a single
// writev per batch, so back-to-back frames — heartbeats, propagation
// bursts, batch responses — share a syscall. The flusher runs whenever
// the outbox is non-empty, so the added latency is bounded by one
// in-flight write; Flush forces a synchronous drain, and Close drains
// before it hangs up.
//
// A closed-loop exchange has nothing to coalesce, so a link sends a reply
// inline: the first Send after the link received a frame, finding the
// outbox empty and no write in flight, makes one non-blocking write from
// the sender's goroutine and skips the flusher hand-off. What the socket
// does not take at once is left to the flusher. See sendInline.
//
// Any failed or short write leaves the byte stream desynchronized for the
// peer (a half-written frame shifts every later length prefix), so the
// link shuts down on the first write error rather than returning an error
// on a live link. A flusher write fails with no caller to tell, so a later
// Send reports ErrClosed and onClose carries the write error.
//
// Two overload bounds protect the sender from a peer that stops reading:
// SetWriteTimeout arms a deadline around every writev, so a stalled socket
// fails the write instead of wedging the flusher forever; SetQueueLimit
// caps the outbox, killing the link (ErrSlowConsumer) the moment queued
// bytes would exceed the bound. Both funnel into the same fail-closed path
// as any other write error (closeWith).
type TCPLink struct {
	conn    net.Conn
	hmu     sync.Mutex
	handler Handler
	onClose func(error)

	// cmu settles how the link ended, on its own mutex and never under
	// wmu: the slow-consumer kill and the read loop's report must not
	// block behind a writev stalled on a dead peer. See closeWith.
	cmu      sync.Mutex
	closed   chan struct{} // closed by the first closeWith
	reason   error         // why the link ended; nil is a clean shutdown
	reported bool          // the read loop has taken reason for onClose

	// wmu serializes writes to conn. Batch extraction from the outbox
	// happens under it too, so two concurrent flushes cannot write their
	// batches out of order.
	wmu    sync.Mutex
	wstore [][]byte // writev view backing
	wview  net.Buffers
	inline *inlineWriter // nil: conn has no descriptor, never send inline

	writeTimeout atomic.Int64 // ns per writev; 0 = no deadline
	queueLimit   atomic.Int64 // outbox bound in bytes; 0 = unbounded

	// replyArmed is set by the read loop for every frame it delivers and
	// consumed by the next Send, which may then go inline.
	replyArmed atomic.Bool

	qmu      sync.Mutex // guards the outbox
	pending  []*chunk
	spare    []*chunk // recycled backing array for the next pending batch
	pendingB int      // queued bytes, headers included
	wake     chan struct{}

	flushes     atomic.Uint64
	flushFrames atomic.Uint64
}

// chunk is one queued frame (length prefix + payload) owned by the link;
// b[off:] is what is still to be written.
type chunk struct {
	b   []byte
	off int
}

var chunkPool = sync.Pool{New: func() any { return &chunk{b: make([]byte, 0, 256)} }}

// newChunk copies frame behind its length prefix into a pooled chunk.
func newChunk(frame []byte) *chunk {
	c := chunkPool.Get().(*chunk)
	b := binary.BigEndian.AppendUint32(c.b[:0], uint32(len(frame)))
	c.b = append(b, frame...)
	return c
}

func putChunk(c *chunk) {
	if cap(c.b) > maxPooledChunk {
		return
	}
	c.b, c.off = c.b[:0], 0
	chunkPool.Put(c)
}

const (
	maxFrame = 16 << 20
	// maxPooledChunk caps pooled chunk capacity so one giant frame does
	// not pin its buffer behind every future heartbeat.
	maxPooledChunk = 64 << 10
	// coalesceFlushBytes bounds queued memory: once this much is pending
	// the sender flushes inline instead of waking the flusher.
	coalesceFlushBytes = 256 << 10
	// recvBufStart is a link's receive buffer before any frame outgrows
	// it. Small on purpose: a server holds one per session.
	recvBufStart = 512
)

// NewTCPLink wraps an established connection. Call SetHandler, then Start.
func NewTCPLink(conn net.Conn) *TCPLink {
	return &TCPLink{
		conn: conn, closed: make(chan struct{}), wake: make(chan struct{}, 1),
		inline: newInlineWriter(conn),
	}
}

// SetCoalesce does nothing: every TCPLink coalesces.
//
// Deprecated: kept only for callers written when coalescing was optional.
func (l *TCPLink) SetCoalesce(bool) {}

// SetWriteTimeout bounds every writev: a peer that accepts the TCP
// handshake but never reads fills its receive window, the kernel buffer,
// and then blocks the write forever — with a timeout the write fails
// instead and the link shuts down through the usual fail-closed path
// (onClose reports the timeout). Zero disables the deadline. Safe to call
// concurrently with sends.
func (l *TCPLink) SetWriteTimeout(d time.Duration) { l.writeTimeout.Store(int64(d)) }

// SetQueueLimit caps the outbox at bytes (length prefixes included).
// Once the bound would be exceeded, Send kills the link and returns
// ErrSlowConsumer rather than buffering without limit for a peer that is
// not draining. While a limit is set, senders never flush inline —
// the bound, not coalesceFlushBytes, is the backpressure — so Send never
// blocks on a stalled socket (the reply-inline write never waits either).
// Zero (the default) restores unbounded queueing with inline flushes.
func (l *TCPLink) SetQueueLimit(bytes int) { l.queueLimit.Store(int64(bytes)) }

// QueuedBytes reports the bytes sitting in the outbox right now, length
// prefixes included. The memory-budget accounting in the replica server
// folds this into each session's footprint.
func (l *TCPLink) QueuedBytes() int {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	return l.pendingB
}

// CoalesceStats counts the write syscalls a link has issued.
type CoalesceStats struct {
	// Flushes is the number of writes issued: the writev batches plus the
	// reply-inline writes.
	Flushes uint64
	// Frames is the number of frames those writes carried; Frames/Flushes
	// is the batching factor.
	Frames uint64
}

// Stats returns a snapshot of the flush counters.
func (l *TCPLink) Stats() CoalesceStats {
	return CoalesceStats{Flushes: l.flushes.Load(), Frames: l.flushFrames.Load()}
}

// Start launches the read loop and the flusher. onClose, if non-nil, is
// invoked once when the read loop exits, with nil on clean shutdown. Both
// goroutines end when the link closes; a link that is never started has
// none, and frames sent before Start wait in the outbox for the flusher.
func (l *TCPLink) Start(onClose func(error)) {
	l.onClose = onClose
	go l.readLoop()
	go l.flushLoop()
}

// closeWith ends the link with err as the reason and reports whether err
// is the reason onClose will carry. The first call closes the connection,
// after the reason is settled, so the read loop that the close wakes finds
// it. EOF and "use of closed connection" say only that one side hung up:
// they count as nil, a clean shutdown. A failure that arrives later still
// replaces a clean reason until the read loop has taken it — when the
// peer's EOF races our failing write, the failure is the root cause.
func (l *TCPLink) closeWith(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		err = nil
	}
	l.cmu.Lock()
	settled := err != nil && l.reason == nil && !l.reported
	if settled {
		l.reason = err
	}
	first := false
	select {
	case <-l.closed:
	default:
		first = true
		close(l.closed)
	}
	l.cmu.Unlock()
	if first {
		l.conn.Close()
	}
	return settled
}

// failWrite is the fail-closed exit of every write path: the link dies
// with err, and the caller gets err back if it became the close reason,
// ErrClosed if the link was already lost to something else.
func (l *TCPLink) failWrite(err error) error {
	if l.closeWith(err) {
		return err
	}
	return ErrClosed
}

// readLoop takes whatever the socket holds with each Read and parses the
// frames out of the buffer in place: header and payload arrive in one
// syscall, and a batch of k coalesced frames costs one read, not 2k.
//
// There is one receive buffer per link, grown to the largest frame seen
// and reused from then on: steady-state receive does not allocate. The
// handler borrows a slice of it (see Handler); the bytes move or are
// overwritten only after the handler has returned.
func (l *TCPLink) readLoop() {
	var err error
	defer func() {
		l.closeWith(err)
		l.cmu.Lock()
		reason := l.reason
		l.reported = true
		l.cmu.Unlock()
		if l.onClose != nil {
			l.onClose(reason)
		}
	}()
	buf := make([]byte, recvBufStart)
	r, w := 0, 0 // buf[r:w] is received and not yet delivered
	for {
		need := 4 // bytes the next frame needs in buf, as far as known
		for w-r >= 4 {
			n := binary.BigEndian.Uint32(buf[r:])
			if n > maxFrame {
				err = fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
				return
			}
			end := r + 4 + int(n)
			if end > w {
				need = 4 + int(n)
				break
			}
			l.deliver(buf[r+4 : end : end])
			r = end
		}
		if err != nil {
			if err == io.EOF && r < w {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return
		}
		// Move the partial frame, if any, to the front, into a larger
		// buffer when it will not fit this one.
		if need > len(buf) {
			grown := make([]byte, need)
			w = copy(grown, buf[r:w])
			buf, r = grown, 0
		} else if r > 0 {
			w = copy(buf, buf[r:w])
			r = 0
		}
		var m int
		m, err = l.conn.Read(buf[w:])
		w += m
	}
}

// deliver hands one received frame to the handler.
func (l *TCPLink) deliver(frame []byte) {
	l.hmu.Lock()
	h := l.handler
	l.hmu.Unlock()
	if h != nil {
		l.replyArmed.Store(true)
		recordRecv(frame)
		h(frame)
	}
}

func (l *TCPLink) Send(frame []byte) error {
	if len(frame) > maxFrame {
		// Nothing was written, so the stream is still in sync: reject the
		// frame but leave the link alive.
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	select {
	case <-l.closed:
		return ErrClosed
	default:
	}
	c := newChunk(frame)
	if l.inline != nil {
		if sent, err := l.sendInline(c); sent {
			if err == nil {
				recordSend(frame)
			}
			return err
		}
	}
	return l.enqueue(c, frame)
}

// sendInline is the reply-inline send. It reports sent=false, leaving c
// with the caller to queue, unless this is the first Send since the link
// received a frame, the outbox is empty and no write is in flight. Then it
// makes one non-blocking write of c from this goroutine: a request and its
// response cost one write each and no flusher hand-off. If the socket is
// full, c queues after all; if it took only part of c, the rest goes to
// the head of the queue — ahead of anything queued meanwhile — and the
// flusher finishes it. The write never waits, so Send keeps its promise
// not to block behind a stalled peer, and it arms no deadline, so there
// is none to clear.
func (l *TCPLink) sendInline(c *chunk) (sent bool, err error) {
	if !l.replyArmed.Load() || !l.replyArmed.CompareAndSwap(true, false) {
		mInlineBurst.Inc()
		return false, nil
	}
	if limit := int(l.queueLimit.Load()); limit > 0 && len(c.b) > limit {
		return false, nil // over the bound by itself: enqueue refuses it
	}
	if !l.wmu.TryLock() {
		mInlineBusy.Inc()
		return false, nil
	}
	l.qmu.Lock()
	empty := len(l.pending) == 0
	l.qmu.Unlock()
	if !empty {
		l.wmu.Unlock()
		mInlineBusy.Inc()
		return false, nil
	}
	n, err := l.inline.write(c.b)
	if err != nil {
		l.wmu.Unlock()
		putChunk(c)
		return true, l.failWrite(err)
	}
	l.flushes.Add(1)
	switch n {
	case len(c.b):
		l.wmu.Unlock()
		putChunk(c)
		l.flushFrames.Add(1)
		recordFlush(1)
		mInlineSends.Inc()
		return true, nil
	case 0:
		// Nothing is on the wire, so c is still an ordinary frame: it
		// queues behind whatever arrived meanwhile and answers to the
		// queue limit like any other.
		l.wmu.Unlock()
		recordFlush(0)
		mInlineEagain.Inc()
		return false, nil
	}
	// Part of the frame is on the wire, so the rest must go out next and
	// in full, whatever the queue limit says (it is less than the one
	// frame the check above let through). wmu is held until it is queued,
	// so no flush can slip a later frame in front of it.
	c.off = n
	l.qmu.Lock()
	l.pending = append(l.pending, nil)
	copy(l.pending[1:], l.pending)
	l.pending[0] = c
	l.pendingB += len(c.b) - n
	l.qmu.Unlock()
	l.wmu.Unlock()
	recordFlush(0)
	mInlineShort.Inc()
	l.wakeFlusher()
	return true, nil
}

// enqueue puts c, the chunk holding frame, in the outbox.
func (l *TCPLink) enqueue(c *chunk, frame []byte) error {
	limit := int(l.queueLimit.Load())
	l.qmu.Lock()
	if limit > 0 && l.pendingB+len(c.b) > limit {
		// Slow consumer: the flusher is not draining and the outbox is at
		// its bound. Kill the link without touching wmu — a stalled writev
		// may hold that lock indefinitely — and recycle the queue.
		// closeWith closes the conn, which unblocks the in-flight write.
		batch := l.pending
		l.pending = nil
		l.pendingB = 0
		l.qmu.Unlock()
		putChunk(c)
		for i, qc := range batch {
			putChunk(qc)
			batch[i] = nil
		}
		mSlowConsumerKills.Inc()
		l.closeWith(ErrSlowConsumer)
		return ErrSlowConsumer
	}
	l.pending = append(l.pending, c)
	l.pendingB += len(c.b)
	// With a queue limit in force the sender never flushes inline: an
	// inline flush would block Send behind the stalled socket the limit
	// exists to protect against.
	over := limit == 0 && l.pendingB >= coalesceFlushBytes
	l.qmu.Unlock()
	recordSend(frame)
	if over {
		return l.Flush()
	}
	l.wakeFlusher()
	return nil
}

func (l *TCPLink) wakeFlusher() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Flush synchronously writes every queued frame with a single vectored
// write. It is a no-op when nothing is pending.
func (l *TCPLink) Flush() error {
	l.wmu.Lock()
	err := l.flushLocked()
	l.wmu.Unlock()
	if err != nil {
		return l.failWrite(err)
	}
	return nil
}

// flushLocked drains the queue under wmu. On error the caller fails the
// link, outside the lock.
func (l *TCPLink) flushLocked() error {
	l.qmu.Lock()
	batch := l.pending
	l.pending = l.spare[:0]
	l.spare = nil
	l.pendingB = 0
	l.qmu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if cap(l.wstore) < len(batch) {
		l.wstore = make([][]byte, len(batch))
	}
	view := l.wstore[:len(batch)]
	for i, c := range batch {
		view[i] = c.b[c.off:]
	}
	// WriteTo consumes l.wview (and reslices view's entries); batch keeps
	// the original chunk headers so they return to the pool intact.
	l.wview = net.Buffers(view)
	err := l.writeLocked()
	for i, c := range batch {
		putChunk(c)
		batch[i] = nil
	}
	l.flushes.Add(1)
	l.flushFrames.Add(uint64(len(batch)))
	recordFlush(len(batch))
	l.qmu.Lock()
	if l.spare == nil {
		l.spare = batch[:0]
	}
	l.qmu.Unlock()
	return err
}

// flushLoop drains the outbox whenever it is non-empty. Frames sent
// while a writev is in flight pile up and go out together on the next
// pass — batching emerges from backpressure, with no timers and no
// unbounded latency.
func (l *TCPLink) flushLoop() {
	for {
		select {
		case <-l.closed:
			return
		case <-l.wake:
			_ = l.Flush()
		}
	}
}

// writeLocked writes l.wview to conn under wmu, with the configured write
// timeout, if any, armed for this write only. The deadline is cleared
// afterwards because the reply-inline write arms none: left standing, it
// would fail an inline send made more than a timeout after the last
// writev with a spurious i/o timeout on a healthy link.
func (l *TCPLink) writeLocked() error {
	wt := l.writeTimeout.Load()
	if wt > 0 {
		_ = l.conn.SetWriteDeadline(time.Now().Add(time.Duration(wt)))
	}
	_, err := l.wview.WriteTo(l.conn)
	if wt > 0 && err == nil {
		_ = l.conn.SetWriteDeadline(time.Time{})
	}
	return err
}

func (l *TCPLink) SetHandler(h Handler) {
	l.hmu.Lock()
	defer l.hmu.Unlock()
	l.handler = h
}

// Close drains the outbox, best effort, so frames accepted before Close
// reach the peer, then tears the link down. Frames racing Close may be
// dropped, exactly like bytes sitting in a dying socket's kernel buffer.
func (l *TCPLink) Close() error {
	_ = l.Flush()
	l.closeWith(nil)
	return nil
}

// Dialer opens a fresh link to a fixed peer. Reconnect logic (the
// replica package's supervisor) redials through it after a link death;
// implementations compose TCP dialing, chaos wrapping, and close-callback
// wiring behind this one signature.
type Dialer func() (Link, error)

// Dial connects to a mobirep server and returns a started link.
func Dial(addr string, h Handler) (Link, error) {
	return DialLink(addr, h, nil)
}

// DialLink is Dial with a close callback: onClose, if non-nil, runs once
// when the read loop exits (nil error on clean shutdown). Reconnect
// supervisors wire it to their failure-detection hook so a dropped TCP
// connection is noticed without waiting for a failed send.
func DialLink(addr string, h Handler, onClose func(error)) (*TCPLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := NewTCPLink(conn)
	l.SetHandler(h)
	l.Start(onClose)
	return l, nil
}

// Listener accepts TCP links.
type Listener struct {
	ln net.Listener
}

// Listen binds addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for one connection and returns an unstarted link; install a
// handler with SetHandler and call Start.
func (l *Listener) Accept() (*TCPLink, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPLink(conn), nil
}

// Close stops accepting.
func (l *Listener) Close() error { return l.ln.Close() }
