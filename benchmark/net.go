package main

import (
	"fmt"
	"sync"

	"mobirep/internal/transport"
)

// loopback makes the benchmark's TCP connections: one listener on
// 127.0.0.1, one dial and one accept per connection, both ends set up
// the way the mobirep-server and mobirep-client binaries set up theirs
// (coalescing on; outbox bound and write deadline on the accepted end).
type loopback struct {
	ln *transport.Listener

	mu    sync.Mutex // pairs each dial with its accept
	links []*transport.TCPLink
}

func newLoopback() (*loopback, error) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	return &loopback{ln: ln}, nil
}

// connect returns the two ends of a fresh connection. The dialled end is
// started (handler to be installed by replica.NewClient); the accepted
// end is not: the caller attaches it to a server and then calls Start,
// as the server binary does.
func (lb *loopback) connect() (dialled, accepted *transport.TCPLink, err error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	dialled, err = transport.DialLink(lb.ln.Addr(), nil, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("dial loopback: %w", err)
	}
	accepted, err = lb.ln.Accept()
	if err != nil {
		dialled.Close()
		return nil, nil, fmt.Errorf("accept on loopback: %w", err)
	}
	dialled.SetCoalesce(true)
	accepted.SetCoalesce(true)
	accepted.SetQueueLimit(outboxBytes)
	accepted.SetWriteTimeout(writeTimeout)
	lb.links = append(lb.links, dialled, accepted)
	return dialled, accepted, nil
}

// stats sums the writev counters of every link made so far.
func (lb *loopback) stats() transport.CoalesceStats {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	var s transport.CoalesceStats
	for _, l := range lb.links {
		ls := l.Stats()
		s.Flushes += ls.Flushes
		s.Frames += ls.Frames
	}
	return s
}

// close tears down every link and the listener. Closing a link twice is
// harmless, so links the workload already closed need no bookkeeping.
func (lb *loopback) close() {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, l := range lb.links {
		l.Close()
	}
	lb.links = nil
	lb.ln.Close()
}
