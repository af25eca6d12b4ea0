// Package obs is the repository's observability subsystem: a
// dependency-free metrics registry and a bounded event tracer, exposed
// over a debug HTTP listener by the mobirep binaries.
//
// The paper's whole argument is cost accounting — expected data and
// control message cost per allocation method — so first-class runtime
// counters are a faithful extension of it: the same quantities the
// analysis prices per request become live series a scrape can watch on a
// running MC/SC pair (reconnect storms, window flips, resync traffic).
//
// Design constraints, in order:
//
//   - Allocation-free on the record path. Counter.Add, Gauge.Set,
//     Histogram.Observe and Tracer.Record perform no heap allocation, so
//     the PR 1 zero-alloc replay-kernel guarantees survive
//     instrumentation (bench_test.go's TestFusedKernelZeroAllocs and
//     TestObsRecordPathZeroAllocs pin this).
//   - Handles, not lookups. Instrumented code holds *Counter pointers
//     obtained once at package init; the hot path never touches the
//     registry map or any lock.
//   - No dependencies. The Prometheus text exposition format is simple
//     enough to write by hand; pulling a client library would drag in
//     protobuf for nothing.
//
// Layout:
//
//   - registry.go: Counter, Gauge, Registry, Snapshot, and the
//     Prometheus-text WriteTo.
//   - histogram.go: Histogram, one bound-free log-linear layout for every
//     distribution, and HistogramSnapshot's Merge and Quantile.
//   - trace.go: typed ring-buffer event tracer (allocation flips,
//     reconnect attempts, resync outcomes, chaos faults, heartbeat
//     misses), each event carrying a monotonic sequence number and a
//     wall-clock timestamp.
//   - http.go: the debug handler serving /metrics, /healthz, /events?n=
//     and net/http/pprof, mounted by the -debug-addr flag of
//     mobirep-server and mobirep-client.
//
// Instrumented packages (replica, transport, sim) register against the
// process-wide Default registry and tracer below; tests that need
// isolation construct their own with New and NewTracer.
package obs

var (
	defaultRegistry = New()
	defaultTracer   = NewTracer(DefaultTraceCapacity)
)

// DefaultTraceCapacity is the ring size of the default tracer: large
// enough to hold a reconnect storm's worth of events, small enough that
// the ring is a fixed few hundred KB.
const DefaultTraceCapacity = 4096

// Default returns the process-wide registry that the instrumented
// packages (replica, transport, sim) register their series in and that
// the binaries' -debug-addr listener serves.
func Default() *Registry { return defaultRegistry }

// DefaultTracer returns the process-wide event tracer feeding the
// /events debug endpoint.
func DefaultTracer() *Tracer { return defaultTracer }
