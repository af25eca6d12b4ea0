package mobirep

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// tcpReadPair is one MC/SC pair over a loopback TCP connection, both
// ends coalescing as the server and client binaries set them up, serving
// ST1 — so every read is remote and every key stays cold, however often
// it is read.
type tcpReadPair struct {
	cli   *replica.Client
	links [2]*transport.TCPLink
	keys  []string
}

func newTCPReadPair(b *testing.B, nkeys int) *tcpReadPair {
	b.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	dialled, err := transport.DialLink(ln.Addr(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	p := &tcpReadPair{links: [2]*transport.TCPLink{dialled, accepted}}
	b.Cleanup(func() {
		dialled.Close()
		accepted.Close()
	})
	srv, err := replica.NewServer(db.NewStore(), replica.Static1())
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 128)
	for i := 0; i < nkeys; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if _, err := srv.Write(key, value); err != nil {
			b.Fatal(err)
		}
		p.keys = append(p.keys, key)
	}
	sess := srv.Attach(accepted)
	accepted.Start(func(error) { sess.Detach() })
	if p.cli, err = replica.NewClient(dialled, replica.Static1()); err != nil {
		b.Fatal(err)
	}
	return p
}

// writevs sums both ends' write syscalls and the frames they carried.
func (p *tcpReadPair) writevs() (flushes, frames uint64) {
	for _, l := range p.links {
		s := l.Stats()
		flushes += s.Flushes
		frames += s.Frames
	}
	return flushes, frames
}

var syscallSeries = [...]string{
	`mobirep_process_syscalls_total{dir="read"}`,
	`mobirep_process_syscalls_total{dir="write"}`,
}

// processSyscalls is the process's read-like plus write-like system
// calls so far, from the obs process counters; false where they are not
// registered.
func processSyscalls() (uint64, bool) {
	s := obs.Default().Snapshot()
	var n uint64
	for _, name := range syscallSeries {
		v, ok := s.Counters[name]
		if !ok {
			return 0, false
		}
		n += v
	}
	return n, true
}

// measure runs run — b.N operations of perOp keys each — and reports per
// key: system calls (read and write, by the process counters, less what
// sampling them costs), heap allocations, frames per write syscall on the
// link, and microseconds. The counts are the claim; the time is reported
// only.
func (p *tcpReadPair) measure(b *testing.B, perOp int, run func()) {
	sys0, haveSys := processSyscalls()
	sys1, _ := processSyscalls()
	sample := sys1 - sys0 // one scrape reads /proc/self/io itself
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	flushes, frames := p.writevs()
	b.ResetTimer()
	run()
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	sys2, _ := processSyscalls()
	f1, fr1 := p.writevs()
	keys := float64(b.N * perOp)
	if haveSys {
		b.ReportMetric(float64(sys2-sys1-sample)/keys, "syscalls/key")
	}
	b.ReportMetric(float64(mallocs)/keys, "allocs/key")
	if f1 > flushes {
		b.ReportMetric(float64(fr1-frames)/float64(f1-flushes), "frames/writev")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/keys, "us/key")
}

// BenchmarkReadManyTCP measures what a key costs when several ride one
// round trip, over a loopback TCPLink pair: ReadMany of n cold keys (one
// request frame and one response frame for all of them), against n
// single reads in flight at once from n goroutines on the same link
// (n frames each way, which the coalescing writer may batch).
func BenchmarkReadManyTCP(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("joint/n=%d", n), func(b *testing.B) {
			p := newTCPReadPair(b, n)
			p.measure(b, n, func() {
				for i := 0; i < b.N; i++ {
					if _, err := p.cli.ReadMany(p.keys); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("pipelined/n=%d", n), func(b *testing.B) {
			p := newTCPReadPair(b, n)
			p.measure(b, n, func() {
				var wg sync.WaitGroup
				for _, key := range p.keys {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							if _, err := p.cli.Read(key); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		})
	}
}
