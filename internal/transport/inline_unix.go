//go:build unix

package transport

import (
	"net"
	"os"
	"syscall"
)

// inlineWriter makes one non-blocking write on a connection's descriptor
// from the calling goroutine (TCPLink's reply-inline send). The callback
// handed to RawConn.Write always reports done, so the runtime never parks
// the caller on the poller: a full socket buffer comes back as EAGAIN.
// All fields are guarded by the link's wmu.
type inlineWriter struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool // w.once, bound once so a send allocates nothing
	buf []byte
	n   int
	err error
}

// newInlineWriter returns nil when conn exposes no descriptor (chaos and
// pipe links); such a link always queues.
func newInlineWriter(conn net.Conn) *inlineWriter {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &inlineWriter{rc: rc}
	w.fn = w.once
	return w
}

func (w *inlineWriter) once(fd uintptr) bool {
	for {
		w.n, w.err = syscall.Write(int(fd), w.buf)
		if w.err != syscall.EINTR {
			return true
		}
	}
}

// write hands b to the kernel without waiting and reports how many bytes
// it took. A full socket buffer is (0, nil); an error means the write
// failed for good (or the connection is already closing).
func (w *inlineWriter) write(b []byte) (int, error) {
	w.buf = b
	err := w.rc.Write(w.fn)
	w.buf = nil
	if err != nil {
		return 0, err
	}
	if w.err == syscall.EAGAIN {
		return 0, nil
	}
	if w.err != nil {
		return 0, os.NewSyscallError("write", w.err)
	}
	return w.n, nil
}
