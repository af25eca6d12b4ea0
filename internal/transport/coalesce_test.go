package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tcpPair returns a dialed client link and a channel of frames received by
// the accepted server link (copied out of the borrowed handler buffer).
func tcpPair(t *testing.T) (*TCPLink, *Listener, chan []byte) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan []byte, 4096)
	go func() {
		link, err := ln.Accept()
		if err != nil {
			return
		}
		link.SetHandler(func(f []byte) { got <- append([]byte(nil), f...) })
		link.Start(nil)
	}()
	cli, err := DialLink(ln.Addr(), func([]byte) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, ln, got
}

// TestEveryTCPLinkCoalesces: a dialed link that nothing configured
// batches its sends through the outbox — back-to-back frames arrive in
// order, and every one of them was carried by a counted writev.
func TestEveryTCPLinkCoalesces(t *testing.T) {
	cli, _, got := tcpPair(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := cli.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flush takes the write lock, so every earlier write has been counted
	// when it returns.
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := cli.Stats(); st.Frames != n {
		t.Fatalf("writes carried %d frames, want %d: the link wrote frames outside the outbox", st.Frames, n)
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
}

// TestTCPLinkGoroutinesEndWithClose: a started link owns two goroutines,
// the read loop and the flusher, and both end when it closes; a link that
// is accepted and closed without Start never had any, and Close still
// drains what it queued.
func TestTCPLinkGoroutinesEndWithClose(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	settle := func(base int) {
		t.Helper()
		for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after Close, %d before the links", n, base)
		}
	}

	base := runtime.NumGoroutine()
	const m = 8
	var links []*TCPLink
	for i := 0; i < m; i++ {
		got := make(chan struct{}, 1)
		cli, err := DialLink(ln.Addr(), func([]byte) { got <- struct{}{} }, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		srv.SetHandler(func(f []byte) { _ = srv.Send(f) })
		srv.Start(nil)
		if err := cli.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		<-got
		links = append(links, cli, srv)
	}
	for _, l := range links {
		l.Close()
	}
	settle(base)

	base = runtime.NumGoroutine()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	unstarted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := unstarted.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	unstarted.Close()
	settle(base)
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 10)
	if _, err := io.ReadFull(raw, buf); err != nil || !bytes.Equal(buf, append([]byte{0, 0, 0, 6}, "queued"...)) {
		t.Fatalf("unstarted link's Close delivered %q, %v; want the queued frame", buf, err)
	}
}

func TestTCPCoalescedInOrderDelivery(t *testing.T) {
	cli, _, got := tcpPair(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := cli.Send([]byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
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
	st := cli.Stats()
	if st.Frames != n {
		t.Fatalf("stats count %d frames, want %d", st.Frames, n)
	}
	if st.Flushes == 0 || st.Flushes > st.Frames {
		t.Fatalf("implausible flush count %d for %d frames", st.Flushes, st.Frames)
	}
	if st.Flushes >= st.Frames {
		t.Fatalf("%d frames took %d writes: nothing was batched", st.Frames, st.Flushes)
	}
}

func TestTCPCoalescedZeroLengthFrames(t *testing.T) {
	cli, _, got := tcpPair(t)
	// Zero-length frames through the outbox: each is a bare
	// 4-byte header and must arrive as an empty (not dropped) frame,
	// interleaved in order with payload frames.
	for i := 0; i < 10; i++ {
		var f []byte
		if i%2 == 1 {
			f = []byte{byte(i)}
		}
		if err := cli.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		select {
		case f := <-got:
			if i%2 == 0 && len(f) != 0 {
				t.Fatalf("frame %d: want empty, got %x", i, f)
			}
			if i%2 == 1 && !bytes.Equal(f, []byte{byte(i)}) {
				t.Fatalf("frame %d: got %x", i, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPMaxFrameBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("16MB frames in -short mode")
	}
	cli, _, got := tcpPair(t)
	// Exactly at the limit: accepted and delivered intact.
	at := make([]byte, maxFrame)
	at[0], at[maxFrame-1] = 0xAB, 0xCD
	if err := cli.Send(at); err != nil {
		t.Fatalf("frame at maxFrame rejected: %v", err)
	}
	select {
	case f := <-got:
		if len(f) != maxFrame || f[0] != 0xAB || f[maxFrame-1] != 0xCD {
			t.Fatalf("boundary frame mangled: len=%d", len(f))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("boundary frame never arrived")
	}
	// One over: rejected with an error, but nothing hit the wire, so the
	// link must stay alive and usable.
	if err := cli.Send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("frame over maxFrame accepted")
	}
	if err := cli.Send([]byte("still-alive")); err != nil {
		t.Fatalf("link died after oversized-frame rejection: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "still-alive" {
			t.Fatalf("got %q", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-rejection frame never arrived")
	}
}

// TestTCPFlushConcurrentClose races senders, flushers, and Close under the
// race detector: no write may panic or corrupt state, whatever interleaving
// the scheduler picks. Errors (ErrClosed, broken pipe) are expected.
func TestTCPFlushConcurrentClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		cli, _, _ := tcpPair(t)
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				frame := bytes.Repeat([]byte{byte(s)}, 64)
				for i := 0; i < 50; i++ {
					if err := cli.Send(frame); err != nil {
						return
					}
				}
			}(s)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = cli.Flush()
			}
		}()
		go func() {
			defer wg.Done()
			cli.Close()
		}()
		wg.Wait()
		if err := cli.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("send after close: %v", err)
		}
	}
}

// severedLink returns a started link whose peer has sent one frame and hung
// up, the channel its close callback reports on, and hold: until hold is
// closed the handler keeps the read loop parked on that one frame, so the
// peer's EOF stays unread. Pass a closed channel to let the EOF race.
func severedLink(t *testing.T, hold chan struct{}) (*TCPLink, chan error) {
	t.Helper()
	conn, srvConn := connPair(t)
	link := NewTCPLink(conn)
	parked := make(chan struct{}, 1)
	link.SetHandler(func([]byte) {
		parked <- struct{}{}
		<-hold
	})
	closed := make(chan error, 1)
	link.Start(func(err error) { closed <- err })
	t.Cleanup(func() { link.Close() })

	if _, err := srvConn.Write([]byte{0, 0, 0, 1, 'x'}); err != nil {
		t.Fatal(err)
	}
	<-parked
	srvConn.Close()
	return link, closed
}

// sendUntilError writes to a severed link until the failure shows (the
// first few sends may land in socket buffers).
func sendUntilError(t *testing.T, link *TCPLink) error {
	t.Helper()
	payload := bytes.Repeat([]byte{1}, 1<<16)
	for i := 0; i < 100; i++ {
		if err := link.Send(payload); err != nil {
			return err
		}
	}
	t.Fatal("writes to a severed connection never failed")
	return nil
}

// TestTCPWriteFailureShutsLinkDown covers the partial-write corruption
// fix: once any write fails, the byte stream is unrecoverable for the
// peer, so the link must die — not hand back an error on a live link —
// and the write error must surface through the close callback.
//
// Which Send sees the failure is up to the scheduler: the sender's own
// write (an inline reply or a flush past coalesceFlushBytes) hands the
// error back, while a failed flusher write has no caller, so the next
// Send says ErrClosed. Either way the link is dead, onClose reports a
// write failure, never a clean shutdown, and a Send that did get an error
// other than ErrClosed got that same failure.
//
// The read loop is parked in the handler while the writes fail. Left
// free it may read the peer's EOF and close the link before any write is
// attempted — Send then says ErrClosed, nothing failed, and a clean
// onClose(nil) is right — which made this test pass or fail by CPU count.
// TestTCPWriteFailureRacesPeerEOF covers the free-running case.
func TestTCPWriteFailureShutsLinkDown(t *testing.T) {
	hold := make(chan struct{})
	link, closed := severedLink(t, hold)
	sendErr := sendUntilError(t, link)
	// The failed write must have killed the link.
	if err := link.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("link still alive after write failure: %v", err)
	}
	// And the close callback reports that failure, not the clean shutdown
	// the read loop sees when it wakes up on a closed connection.
	close(hold)
	select {
	case err := <-closed:
		if err == nil {
			t.Fatalf("onClose reported a clean shutdown after Send failed with %v", sendErr)
		}
		if !errors.Is(sendErr, ErrClosed) && err != sendErr {
			t.Fatalf("onClose reported %v, want the write failure %v", err, sendErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close callback never fired")
	}
}

// TestTCPWriteFailureRacesPeerEOF lets the peer's EOF and the failing
// write race, as they do in production. Whichever side loses the link
// first, the reason is settled once: a Send that is handed a write error
// (not ErrClosed) has made it the reason onClose carries.
func TestTCPWriteFailureRacesPeerEOF(t *testing.T) {
	free := make(chan struct{})
	close(free)
	for round := 0; round < 50; round++ {
		link, closed := severedLink(t, free)
		sendErr := sendUntilError(t, link)
		if err := link.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("round %d: link still alive after %v: %v", round, sendErr, err)
		}
		select {
		case err := <-closed:
			if !errors.Is(sendErr, ErrClosed) && err != sendErr {
				t.Fatalf("round %d: Send failed with %v but onClose reported %v", round, sendErr, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: close callback never fired", round)
		}
	}
}

// TestTCPReceiveAllocsSteadyState pins the receive path: once the link's
// buffer has grown to the largest frame, a frame costs zero allocations
// from the sender's Send to the receiver's handler, and the handler keeps
// being lent the same memory.
func TestTCPReceiveAllocsSteadyState(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ptrs := make(chan *byte, 1)
	go func() {
		link, err := ln.Accept()
		if err != nil {
			return
		}
		link.SetHandler(func(f []byte) { ptrs <- &f[0] })
		link.Start(nil)
	}()
	cli, err := Dial(ln.Addr(), func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	frame := bytes.Repeat([]byte{7}, 2*recvBufStart) // outgrows the first buffer
	exchange := func() *byte {
		if err := cli.Send(frame); err != nil {
			t.Fatal(err)
		}
		return <-ptrs // no timeout: a timer would be the only allocation here
	}
	exchange() // grows the buffer
	first := exchange()
	// AllocsPerRun counts the whole process's mallocs, read loop included.
	if n := testing.AllocsPerRun(200, func() {
		if p := exchange(); p != first {
			t.Fatal("frame delivered in a fresh buffer")
		}
	}); n != 0 {
		t.Fatalf("send + receive allocated %.2f times per frame, want 0", n)
	}
}
