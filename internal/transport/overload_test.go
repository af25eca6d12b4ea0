package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// stalledPair returns a client link whose peer accepted the TCP handshake
// but never reads — the pathological consumer the overload bounds exist
// for — plus the client's close-callback channel. Socket buffers are
// shrunk on both ends so the kernel absorbs little before writes wedge.
func stalledPair(t *testing.T) (*TCPLink, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(4 << 10)
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(16 << 10)
	}
	link := NewTCPLink(conn)
	link.SetHandler(func([]byte) {})
	closed := make(chan error, 1)
	link.Start(func(err error) { closed <- err })
	srv := <-accepted
	t.Cleanup(func() {
		link.Close()
		srv.Close()
		ln.Close()
	})
	return link, closed
}

// TestTCPWriteTimeoutKillsStalledLink is the write-deadline regression: a
// peer that never reads must not wedge the writer forever. With a write
// timeout armed, the blocked writev fails, the link dies through the
// fail-closed path, and onClose reports the timeout as the root cause.
// The flusher goroutine is what the deadline exists to protect.
func TestTCPWriteTimeoutKillsStalledLink(t *testing.T) {
	t.Run("coalesced", func(t *testing.T) {
		link, closed := stalledPair(t)
		link.SetWriteTimeout(200 * time.Millisecond)
		payload := bytes.Repeat([]byte{7}, 1<<16)
		var sendErr error
		for i := 0; i < 1000 && sendErr == nil; i++ {
			sendErr = link.Send(payload)
		}
		if sendErr == nil {
			t.Fatal("sends to a peer that never reads never failed")
		}
		if err := link.Send([]byte("x")); err != ErrClosed {
			t.Fatalf("link still alive after write timeout: %v", err)
		}
		select {
		case err := <-closed:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("onClose error %v is not a timeout", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("close callback never fired")
		}
	})
}

// TestTCPQueueLimitKillsSlowConsumer: with a bounded outbox, a stalled
// peer costs at most the bound — the link dies with ErrSlowConsumer, the
// queue is recycled, and onClose carries the reason so the server's
// detach path can tell "slow consumer" from "clean shutdown".
func TestTCPQueueLimitKillsSlowConsumer(t *testing.T) {
	link, closed := stalledPair(t)
	link.SetQueueLimit(32 << 10)
	payload := bytes.Repeat([]byte{9}, 1024)
	var sendErr error
	for i := 0; i < 100000 && sendErr == nil; i++ {
		sendErr = link.Send(payload)
	}
	if !errors.Is(sendErr, ErrSlowConsumer) {
		t.Fatalf("send error = %v, want ErrSlowConsumer", sendErr)
	}
	if n := link.QueuedBytes(); n != 0 {
		t.Fatalf("outbox holds %d bytes after the kill", n)
	}
	if err := link.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("link still alive after outbox overflow: %v", err)
	}
	select {
	case err := <-closed:
		if !errors.Is(err, ErrSlowConsumer) {
			t.Fatalf("onClose error = %v, want ErrSlowConsumer", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close callback never fired")
	}
}

// TestSendAfterCloseParity pins the documented contract the supervisor's
// send-failure suspicion path relies on: whatever the transport, Send
// after Close returns ErrClosed.
func TestSendAfterCloseParity(t *testing.T) {
	t.Run("memLink", func(t *testing.T) {
		a, _ := NewMemPair()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("memLink Send after Close = %v, want ErrClosed", err)
		}
	})
	t.Run("tcp-coalesced", func(t *testing.T) {
		cli, _, _ := tcpPair(t)
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cli.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("TCPLink Send after Close = %v, want ErrClosed", err)
		}
	})
}

// TestTCPSlowConsumerHammer races many senders against a bounded outbox
// and a peer that never reads: every sender must come to rest with
// ErrSlowConsumer or ErrClosed — never a hang, never a data race — and
// the close callback must fire exactly once with the slow-consumer cause.
func TestTCPSlowConsumerHammer(t *testing.T) {
	for round := 0; round < 5; round++ {
		link, closed := stalledPair(t)
		link.SetQueueLimit(16 << 10)
		link.SetWriteTimeout(time.Second)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				frame := bytes.Repeat([]byte{byte(g)}, 512)
				for i := 0; i < 200; i++ {
					if err := link.Send(frame); err != nil {
						if !errors.Is(err, ErrSlowConsumer) && !errors.Is(err, ErrClosed) {
							t.Errorf("sender %d: unexpected error %v", g, err)
						}
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := link.Send([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: link survived the hammer: %v", round, err)
		}
		select {
		case err := <-closed:
			if !errors.Is(err, ErrSlowConsumer) {
				t.Fatalf("round %d: onClose error = %v, want ErrSlowConsumer", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: close callback never fired", round)
		}
	}
}

// TestChaosStallBuffersAndFlushesInOrder: a stall holds frames without
// loss and releases them in send order when the reader "wakes up".
func TestChaosStallBuffersAndFlushesInOrder(t *testing.T) {
	a, b := NewMemPair()
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(f []byte) {
		mu.Lock()
		got = append(got, string(f))
		mu.Unlock()
	})
	c, err := NewChaos(a, Config{Seed: 1, Stall: 1, StallFor: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := c.Send([]byte(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	early := len(got)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d frames leaked through an active stall", early)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall never flushed: got %d/%d frames", len(got), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, f := range got {
		if want := fmt.Sprintf("f%d", i); f != want {
			t.Fatalf("frame %d: got %q, want %q — stall reordered", i, f, want)
		}
	}
	st := c.Stats()
	if st.Stalled != n || st.Delivered != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChaosStallCapKillsLink: buffering during a stall is bounded; past
// the cap the link dies the way a bounded outbox kills a slow consumer.
func TestChaosStallCapKillsLink(t *testing.T) {
	a, b := NewMemPair()
	b.SetHandler(func([]byte) {})
	c, err := NewChaos(a, Config{Stall: 1, StallFor: time.Hour, StallCap: 20})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	for i := 0; i < 2; i++ {
		if err := c.Send(payload); err != nil {
			t.Fatalf("send %d under cap failed: %v", i, err)
		}
	}
	if err := c.Send(payload); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("over-cap send = %v, want ErrSlowConsumer", err)
	}
	if err := c.Send(payload); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on killed link = %v, want ErrClosed", err)
	}
}

func TestParseChaosSpecStallKeys(t *testing.T) {
	cfg, err := ParseChaosSpec("stall=0.5,stallfor=2s,stallcap=1024")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stall != 0.5 || cfg.StallFor != 2*time.Second || cfg.StallCap != 1024 {
		t.Fatalf("parsed %+v", cfg)
	}
	cfg, err = ParseChaosSpec("stall=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StallFor != 100*time.Millisecond {
		t.Fatalf("stallfor default = %v", cfg.StallFor)
	}
	if !cfg.Enabled() {
		t.Fatal("stall-only config reported disabled")
	}
	if _, err := ParseChaosSpec("stall=1.5"); err == nil {
		t.Fatal("out-of-range stall accepted")
	}
}
