package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// Tests for the reply-inline send (sendInline) and the one-read receive
// (readLoop's in-place parser).

// rawPeer is a TCPLink under test plus the raw connection at
// the other end, which the test reads and writes by hand: it decides when
// the link has "received a frame" and when (and whether) its sends drain.
// sndbuf, when positive, shrinks the link's socket send buffer. (The raw
// end keeps its default receive buffer: a window smaller than loopback's
// 64 KiB MSS drains by persist-timer probes, seconds for a megabyte.)
type rawPeer struct {
	link   *TCPLink
	peer   net.Conn
	armed  chan struct{} // one token per frame the link's handler saw
	closed chan error
}

// connPair returns the two ends of one loopback TCP connection.
func connPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, ok := <-ch
	if !ok {
		t.Fatal("accept failed")
	}
	return dialed, accepted
}

func newRawPeer(t *testing.T, sndbuf int) *rawPeer {
	t.Helper()
	conn, peer := connPair(t)
	if tc, ok := conn.(*net.TCPConn); ok && sndbuf > 0 {
		_ = tc.SetWriteBuffer(sndbuf)
	}
	p := &rawPeer{link: NewTCPLink(conn), peer: peer, armed: make(chan struct{}, 1<<16), closed: make(chan error, 1)}
	p.link.SetHandler(func([]byte) { p.armed <- struct{}{} })
	p.link.Start(func(err error) { p.closed <- err })
	t.Cleanup(func() {
		p.link.Close()
		p.peer.Close()
	})
	return p
}

// arm makes the link receive one frame, so its next Send may go inline.
func (p *rawPeer) arm(t *testing.T) {
	t.Helper()
	if _, err := p.peer.Write([]byte{0, 0, 0, 1, 'r'}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.armed:
	case <-time.After(5 * time.Second):
		t.Fatal("link never delivered the arming frame")
	}
}

// readFrame reads one length-prefixed frame off the raw end.
func (p *rawPeer) readFrame(t *testing.T) []byte {
	t.Helper()
	_ = p.peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(p.peer, hdr[:]); err != nil {
		t.Fatalf("reading frame header: %v", err)
	}
	f := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(p.peer, f); err != nil {
		t.Fatalf("reading frame body: %v", err)
	}
	return f
}

func seqFrame(i, size int) []byte {
	f := bytes.Repeat([]byte{byte(i)}, size)
	binary.BigEndian.PutUint32(f, uint32(i))
	return f
}

func TestTCPInlineReplyIsOneWrite(t *testing.T) {
	p := newRawPeer(t, 0)
	sends, bursts := mInlineSends.Load(), mInlineBurst.Load()
	for i := 0; i < 100; i++ {
		p.arm(t)
		before := p.link.Stats()
		if err := p.link.Send(seqFrame(i, 64)); err != nil {
			t.Fatal(err)
		}
		// Inline means the write is done when Send returns: counted as
		// one flush of one frame, nothing left for the flusher.
		after := p.link.Stats()
		if after.Flushes != before.Flushes+1 || after.Frames != before.Frames+1 {
			t.Fatalf("reply %d: stats %+v -> %+v, want one flush of one frame", i, before, after)
		}
		if q := p.link.QueuedBytes(); q != 0 {
			t.Fatalf("reply %d left %d bytes queued", i, q)
		}
		if got := p.readFrame(t); !bytes.Equal(got, seqFrame(i, 64)) {
			t.Fatalf("reply %d arrived as %x", i, got[:8])
		}
	}
	if d := mInlineSends.Load() - sends; d != 100 {
		t.Fatalf("inline_sends_total moved by %d, want 100", d)
	}
	// A second frame before the next receive is a burst: it queues.
	if err := p.link.Send(seqFrame(100, 64)); err != nil {
		t.Fatal(err)
	}
	if d := mInlineBurst.Load() - bursts; d != 1 {
		t.Fatalf("inline_fallbacks_total{burst} moved by %d, want 1", d)
	}
	if got := p.readFrame(t); !bytes.Equal(got, seqFrame(100, 64)) {
		t.Fatalf("burst frame arrived as %x", got[:8])
	}
}

// TestTCPInlineRemainderKeepsOrder: against a peer that has stopped
// reading and a tiny send buffer, an inline write soon comes up short or
// empty-handed. The remainder must go out first and whole, ahead of
// everything queued behind it, and no Send may wait for the peer.
func TestTCPInlineRemainderKeepsOrder(t *testing.T) {
	p := newRawPeer(t, 32<<10)
	p.link.SetQueueLimit(8 << 20)
	left := mInlineEagain.Load() + mInlineShort.Load()
	const n, size = 64, 16 << 10 // 1 MiB: far more than the socket buffers hold
	for i := 0; i < n; i++ {
		p.arm(t)
		start := time.Now()
		if err := p.link.Send(seqFrame(i, size)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("send %d blocked for %v behind a stalled peer", i, d)
		}
	}
	if d := mInlineEagain.Load() + mInlineShort.Load() - left; d == 0 {
		t.Fatal("no inline write came up short or empty: the test did not reach the remainder path")
	}
	for i := 0; i < n; i++ {
		if got := p.readFrame(t); !bytes.Equal(got, seqFrame(i, size)) {
			t.Fatalf("frame %d arrived as seq %d, %d bytes", i, binary.BigEndian.Uint32(got), len(got))
		}
	}
}

// TestTCPInlineReplyAfterIdleWriteTimeout: the flusher arms a write
// deadline; the inline write arms none. A deadline left standing would
// fail the first inline reply sent more than WriteTimeout later with a
// spurious i/o timeout, killing a healthy link.
func TestTCPInlineReplyAfterIdleWriteTimeout(t *testing.T) {
	p := newRawPeer(t, 0)
	const wt = 50 * time.Millisecond
	p.link.SetWriteTimeout(wt)
	// Not armed yet: this one goes through the flusher, deadline and all.
	if err := p.link.Send(seqFrame(0, 64)); err != nil {
		t.Fatal(err)
	}
	p.readFrame(t)
	time.Sleep(3 * wt)
	p.arm(t)
	sends := mInlineSends.Load()
	if err := p.link.Send(seqFrame(1, 64)); err != nil {
		t.Fatalf("inline reply after an idle WriteTimeout: %v", err)
	}
	if mInlineSends.Load() == sends {
		t.Fatal("the reply did not go inline")
	}
	if got := p.readFrame(t); !bytes.Equal(got, seqFrame(1, 64)) {
		t.Fatalf("reply arrived as %x", got[:8])
	}
	select {
	case err := <-p.closed:
		t.Fatalf("link closed: %v", err)
	default:
	}
}

// TestTCPCoalescedBurstWithReceives is TestTCPCoalescedInOrderDelivery
// with the peer talking back throughout: receives keep arming the inline
// path in the middle of a single-sender burst, and the burst must still
// arrive in order and still beat the two-writes-per-frame path.
func TestTCPCoalescedBurstWithReceives(t *testing.T) {
	p := newRawPeer(t, 0)
	const n = 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.peer.Write([]byte{0, 0, 0, 1, 'r'}); err != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	got := make(chan []byte, n)
	go func() {
		var hdr [4]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(p.peer, hdr[:]); err != nil {
				return
			}
			f := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(p.peer, f); err != nil {
				return
			}
			got <- f
		}
	}()
	for i := 0; i < n; i++ {
		if err := p.link.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.link.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-got:
			if want := fmt.Sprintf("frame-%d", i); string(f) != want {
				t.Fatalf("frame %d: got %q, want %q", i, f, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d frames arrived", i, n)
		}
	}
	close(stop)
	wg.Wait()
	st := p.link.Stats()
	if st.Frames != n {
		t.Fatalf("stats count %d frames, want %d", st.Frames, n)
	}
	if saved := 2*st.Frames - st.Flushes; saved <= st.Frames {
		t.Fatalf("%d writes for %d frames — no better than the two-write path", st.Flushes, st.Frames)
	}
}

// TestInlineCountersAllocFree pins DESIGN.md §10's rule (recording is
// allocation-free; TestObsRecordPathZeroAllocs) for the inline series:
// resolved at init, one atomic add, no allocation.
func TestInlineCountersAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		mInlineSends.Inc()
		mInlineEagain.Inc()
		mInlineShort.Inc()
		mInlineBusy.Inc()
		mInlineBurst.Inc()
		recordFlush(1)
	}); n != 0 {
		t.Fatalf("inline counters allocate %.1f times per run, want 0", n)
	}
}

// scriptConn is a net.Conn whose Read hands out a byte stream in the
// pieces the test scripted, then reports EOF. It has no descriptor, so a
// link over it also exercises the never-inline fallback. Only the read
// loop touches it.
type scriptConn struct {
	net.Conn // nil: the link must not call anything but Read and Close
	pieces   [][]byte
}

func (c *scriptConn) Read(b []byte) (int, error) {
	for len(c.pieces) > 0 && len(c.pieces[0]) == 0 {
		c.pieces = c.pieces[1:]
	}
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.pieces[0])
	c.pieces[0] = c.pieces[0][n:]
	return n, nil
}

func (c *scriptConn) Close() error { return nil }

// receiveScript runs a link's read loop over the scripted pieces and
// returns the frames its handler saw (copied) and the close reason.
func receiveScript(t *testing.T, pieces ...[]byte) ([][]byte, error) {
	t.Helper()
	conn := &scriptConn{pieces: pieces}
	l := NewTCPLink(conn)
	var frames [][]byte
	l.SetHandler(func(f []byte) { frames = append(frames, append([]byte{}, f...)) })
	done := make(chan error, 1)
	l.Start(func(err error) { done <- err })
	select {
	case err := <-done:
		return frames, err
	case <-time.After(10 * time.Second):
		t.Fatal("read loop never finished the script")
		return nil, nil
	}
}

func framed(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

func TestTCPReceiveFrameSplitAtEveryOffset(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte("b"), 300), []byte("c")}
	stream := framed(payloads...)
	for cut := 0; cut <= len(stream); cut++ {
		frames, err := receiveScript(t, stream[:cut], stream[cut:])
		if err != nil {
			t.Fatalf("cut %d: closed with %v", cut, err)
		}
		if len(frames) != len(payloads) {
			t.Fatalf("cut %d: %d frames, want %d", cut, len(frames), len(payloads))
		}
		for i, f := range frames {
			if !bytes.Equal(f, payloads[i]) {
				t.Fatalf("cut %d: frame %d = %q, want %q", cut, i, f, payloads[i])
			}
		}
	}
}

func TestTCPReceiveManyFramesInOneRead(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 40; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("frame-%02d", i)))
	}
	// 40 twelve-byte frames fit one read of the 512-byte buffer, and the
	// handler must see each before the bytes behind it move.
	frames, err := receiveScript(t, framed(payloads...))
	if err != nil || len(frames) != len(payloads) {
		t.Fatalf("%d frames, closed with %v", len(frames), err)
	}
	for i, f := range frames {
		if !bytes.Equal(f, payloads[i]) {
			t.Fatalf("frame %d = %q", i, f)
		}
	}
}

func TestTCPReceiveFrameLargerThanBuffer(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<12) // 64 KiB through a 512 B buffer
	payloads := [][]byte{[]byte("small"), big, []byte("after"), big[:recvBufStart], []byte("end")}
	frames, err := receiveScript(t, framed(payloads...))
	if err != nil || len(frames) != len(payloads) {
		t.Fatalf("%d frames, closed with %v", len(frames), err)
	}
	for i, f := range frames {
		if !bytes.Equal(f, payloads[i]) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(f), len(payloads[i]))
		}
	}
}

func TestTCPReceiveRejectsOversizeAndTruncation(t *testing.T) {
	over := binary.BigEndian.AppendUint32(framed([]byte("ok")), maxFrame+1)
	frames, err := receiveScript(t, over)
	if len(frames) != 1 || err == nil {
		t.Fatalf("oversize header: %d frames, closed with %v; want the frame before it and an error", len(frames), err)
	}
	// A stream that ends inside a frame is not a clean shutdown.
	whole := framed([]byte("whole"), []byte("truncated"))
	frames, err = receiveScript(t, whole[:len(whole)-3])
	if len(frames) != 1 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: %d frames, closed with %v; want 1 and ErrUnexpectedEOF", len(frames), err)
	}
	// Ending on a frame boundary is.
	if _, err = receiveScript(t, whole); err != nil {
		t.Fatalf("clean end of stream closed with %v", err)
	}
}

// TestTCPNoDescriptorNeverInlines: a connection without SyscallConn
// (chaos and pipe links) queues every send, armed or not.
func TestTCPNoDescriptorNeverInlines(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	l := NewTCPLink(struct{ net.Conn }{a}) // hide whatever net.Pipe's type offers
	if l.inline != nil {
		t.Fatal("a conn without SyscallConn got an inline writer")
	}
	l.SetHandler(func([]byte) {})
	l.Start(nil)
	defer l.Close()
	go func() { _, _ = b.Write(framed([]byte("arm"))) }()
	deadline := time.Now().Add(5 * time.Second)
	for !l.replyArmed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("frame never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, framed([]byte("queued"))) {
		t.Fatalf("read %q, %v", got, err)
	}
}
