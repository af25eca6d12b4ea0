package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; registry-created counters are shared by name.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; negative deltas are a programming
// error and the API makes them unrepresentable.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (sessions open, queue
// depth). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into a fixed bucket layout chosen at
// construction. Observe is lock-free and allocation-free: one atomic add
// on the bucket, one on the count, and a CAS loop folding the value into
// the float64 sum.
type Histogram struct {
	// bounds are the inclusive upper bounds of the buckets, ascending;
	// an implicit +Inf bucket catches the rest. Immutable after New.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, accumulated by CAS
}

// NewHistogram builds a standalone histogram with the given ascending
// upper bounds. Registry users call Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket layouts are small (≤ ~20) and the branch
	// predictor eats this; a binary search buys nothing at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns a consistent-enough copy (each cell individually
// atomic; cross-cell skew is bounded by in-flight Observes).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	// Read the total first: concurrent Observes bump buckets before the
	// total, so Count ≤ sum(Counts) and cumulative emission stays sane.
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the upper bounds; Counts has one extra slot for +Inf.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// DurationBuckets is the shared latency layout, in seconds: 1µs to ~16s
// in powers of four. Fixed so dashboards can compare any two series.
var DurationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16,
}

// metric is the registry's slot: exactly one of the three is non-nil.
type metric struct {
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration (Counter/Gauge/Histogram) is idempotent
// by full series name and safe for concurrent use; the returned handles
// are the hot-path API and never touch the registry again.
//
// Series names follow Prometheus conventions and may carry a fixed label
// set inline: `mobirep_replica_reads_total{result="local"}`. Labelled
// series of one base name share a single HELP/TYPE header on exposition.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
	help    map[string]string // keyed by base name (name up to '{')
	// scrape holds the hooks that bring counters read from outside the
	// program (the kernel's, process_linux.go) up to date; Snapshot and
	// WriteTo run them first, so the request path never pays for them.
	scrape []func()
}

// New creates an empty registry. Most code uses Default.
func New() *Registry {
	return &Registry{
		metrics: make(map[string]metric),
		help:    make(map[string]string),
	}
}

// baseName strips the inline label set: `a_total{x="y"}` → `a_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// checkName rejects series names Prometheus would refuse to scrape.
// Registration happens at package init, so a panic here fails fast and
// loudly instead of corrupting the exposition.
func checkName(name string) {
	base := baseName(name)
	if base == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
	if len(base) != len(name) {
		labels := name[len(base):]
		if !strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}") {
			panic(fmt.Sprintf("obs: malformed label set in %q", name))
		}
	}
}

// Counter returns the counter registered under name, creating it if
// needed. help is recorded for the base name on first registration.
func (r *Registry) Counter(name, help string) *Counter {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.counter == nil {
			panic(fmt.Sprintf("obs: %q already registered as a different type", name))
		}
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = metric{counter: c}
	r.setHelpLocked(name, help)
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.gauge == nil {
			panic(fmt.Sprintf("obs: %q already registered as a different type", name))
		}
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = metric{gauge: g}
	r.setHelpLocked(name, help)
	return g
}

// Histogram returns the histogram registered under name with the given
// fixed bucket bounds, creating it if needed. Re-registration must use
// the same layout.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.hist == nil {
			panic(fmt.Sprintf("obs: %q already registered as a different type", name))
		}
		if len(m.hist.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: %q re-registered with a different bucket layout", name))
		}
		return m.hist
	}
	h := NewHistogram(bounds)
	r.metrics[name] = metric{hist: h}
	r.setHelpLocked(name, help)
	return h
}

// OnScrape registers f to run at the start of every Snapshot and WriteTo,
// before any series is read: the hook for counters whose source is
// outside the program and is sampled only when someone looks.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrape = append(r.scrape, f)
}

// runScrape runs the OnScrape hooks.
func (r *Registry) runScrape() {
	r.mu.RLock()
	hooks := r.scrape
	r.mu.RUnlock()
	for _, f := range hooks {
		f()
	}
}

func (r *Registry) setHelpLocked(name, help string) {
	base := baseName(name)
	if _, ok := r.help[base]; !ok && help != "" {
		r.help[base] = help
	}
}

// Snapshot is a point-in-time copy of every registered series, for tests
// and programmatic consumers. Counters and gauges are exact per cell;
// consistency across cells is bounded by in-flight writers.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the snapshotted counter value, zero when absent — so
// delta arithmetic works before the first registration.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the snapshotted gauge value, zero when absent.
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot copies every series out of the registry.
func (r *Registry) Snapshot() Snapshot {
	r.runScrape()
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, m := range r.metrics {
		switch {
		case m.counter != nil:
			s.Counters[name] = m.counter.Load()
		case m.gauge != nil:
			s.Gauges[name] = m.gauge.Load()
		case m.hist != nil:
			s.Histograms[name] = m.hist.snapshot()
		}
	}
	return s
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): series sorted by name, one HELP/TYPE header per base
// name, histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.runScrape()
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	// Copy out handles so rendering does not hold the lock.
	series := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		series[name] = m
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	sort.Strings(names)
	var b strings.Builder
	seenBase := make(map[string]bool)
	for _, name := range names {
		m := series[name]
		base := baseName(name)
		if !seenBase[base] {
			seenBase[base] = true
			if h := help[base]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", base, strings.ReplaceAll(h, "\n", " "))
			}
			typ := "counter"
			switch {
			case m.gauge != nil:
				typ = "gauge"
			case m.hist != nil:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
		}
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", name, m.counter.Load())
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %d\n", name, m.gauge.Load())
		case m.hist != nil:
			writeHistogram(&b, name, m.hist.snapshot())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram emits one histogram's cumulative bucket series.
func writeHistogram(b *strings.Builder, name string, s HistogramSnapshot) {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i+1:len(name)-1]+","
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", base, labels, le, cum)
	}
	tail := ""
	if labels != "" {
		tail = "{" + labels[:len(labels)-1] + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", base, tail, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", base, tail, cum)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
