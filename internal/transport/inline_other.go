//go:build !unix

package transport

import "net"

// inlineWriter is the non-unix stub: no non-blocking descriptor write is
// attempted, so every coalesced Send queues for the flusher.
type inlineWriter struct{}

func newInlineWriter(net.Conn) *inlineWriter { return nil }

func (*inlineWriter) write([]byte) (int, error) { return 0, nil }
