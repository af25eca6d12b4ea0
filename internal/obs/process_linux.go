package obs

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"syscall"
)

// Process counters: what the kernel counts for this process, so that a
// claim about system calls, context switches or page faults per
// operation is a count and not a time. They are sampled by an OnScrape
// hook — only when the registry is scraped, never on the request path —
// and exist only on Linux: a platform without /proc/self/io or these
// getrusage fields has the series absent rather than wrong.
func init() { registerProcessCounters(defaultRegistry) }

// registerProcessCounters adds the process counters to r and the hook
// that samples them. The syscall counters are registered only if
// /proc/self/io can be read.
func registerProcessCounters(r *Registry) {
	var reads, writes *Counter
	if _, _, ok := readProcIO(); ok {
		const help = "Read-like and write-like system calls the process has made (read, readv, recvmsg, ...; write, writev, sendmsg, ...), from /proc/self/io syscr and syscw."
		reads = r.Counter(`mobirep_process_syscalls_total{dir="read"}`, help)
		writes = r.Counter(`mobirep_process_syscalls_total{dir="write"}`, help)
	}
	const csHelp = "Context switches of the process, from getrusage: voluntary (it blocked) and involuntary (it was preempted)."
	voluntary := r.Counter(`mobirep_process_context_switches_total{kind="voluntary"}`, csHelp)
	involuntary := r.Counter(`mobirep_process_context_switches_total{kind="involuntary"}`, csHelp)
	minor := r.Counter("mobirep_process_minor_faults_total", "Page faults of the process served without I/O, from getrusage.")
	var mu sync.Mutex
	r.OnScrape(func() {
		// One sampler at a time, and a counter only ever moves up to a
		// newer sample, so concurrent scrapes cannot pull one back.
		mu.Lock()
		defer mu.Unlock()
		if reads != nil {
			if cr, cw, ok := readProcIO(); ok {
				raise(reads, cr)
				raise(writes, cw)
			}
		}
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			raise(voluntary, uint64(ru.Nvcsw))
			raise(involuntary, uint64(ru.Nivcsw))
			raise(minor, uint64(ru.Minflt))
		}
	})
}

// raise sets c to v when v is higher. The caller serializes samplers.
func raise(c *Counter, v uint64) {
	if v > c.Load() {
		c.v.Store(v)
	}
}

// readProcIO returns the syscr and syscw fields of /proc/self/io.
func readProcIO() (reads, writes uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	var seen int
	for _, line := range bytes.Split(b, []byte("\n")) {
		name, value, found := bytes.Cut(line, []byte(": "))
		if !found {
			continue
		}
		n, err := strconv.ParseUint(string(value), 10, 64)
		if err != nil {
			continue
		}
		switch string(name) {
		case "syscr":
			reads, seen = n, seen|1
		case "syscw":
			writes, seen = n, seen|2
		}
	}
	return reads, writes, seen == 3
}
