package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	h := r.Histogram("test_latency_ns", "latency")
	if again := r.Histogram("test_latency_ns", ""); again != h {
		t.Fatal("re-registration returned a different histogram")
	}
	for _, v := range []float64{0.5, 0.9, 5, 100, 0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 106.4 || s.Max != 100 {
		t.Fatalf("histogram count, sum, max = %d, %v, %v, want 5, 106.4, 100", s.Count, s.Sum, s.Max)
	}
	// Ranks 1..5 are 0, 0.5, 0.9, 5 and 100: integers are exact, and a
	// fraction reads at most 1/64 high.
	for _, c := range []struct{ q, lo, hi float64 }{
		{0, 0, 0}, {0.4, 0.5, 0.5}, {0.6, 0.9, 0.9 * (1 + 1.0/64)}, {0.8, 5, 5}, {1, 100, 100},
	} {
		if got := s.Quantile(c.q); got < c.lo || got > c.hi {
			t.Fatalf("Quantile(%v) = %v, want in [%v, %v]", c.q, got, c.lo, c.hi)
		}
	}
	var merged HistogramSnapshot
	merged.Merge(s)
	merged.Merge(s)
	if merged.Count != 10 || merged.Max != 100 || merged.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatalf("merging a snapshot with itself: %d observations, max %v, median %v",
			merged.Count, merged.Max, merged.Quantile(0.5))
	}
	// Out of range: below zero shares zero's bucket, past 2^maxExp clamps
	// into the last bucket, and Max stays exact.
	h.Observe(-3)
	h.Observe(1e30)
	if s = h.Snapshot(); s.Counts[0] != 2 || s.Counts[numBuckets-1] != 1 || s.Max != 1e30 {
		t.Fatalf("clamping: zero bucket %d, last bucket %d, max %v", s.Counts[0], s.Counts[numBuckets-1], s.Max)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("test_x", "")
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := New()
	for _, name := range []string{"", "9leading", "has space", "bad-dash", `x{y="z"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q was accepted", name)
				}
			}()
			r.Counter(name, "")
		}()
	}
}

func TestSnapshotAbsentSeriesIsZero(t *testing.T) {
	s := New().Snapshot()
	if s.Counter("never_registered_total") != 0 || s.Gauge("never_registered") != 0 {
		t.Fatal("absent series must read as zero for delta arithmetic")
	}
}

// TestWriteToPrometheusFormat parses the exposition line by line: every
// non-comment line must be `name value` with the name matching the
// Prometheus grammar, every base name must carry a TYPE header before
// its first sample, and histogram bucket counts must be cumulative and
// agree with _count.
func TestWriteToPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("app_reads_total", "reads").Add(3)
	r.Counter(`app_reads_by_result_total{result="local"}`, "reads by result").Add(2)
	r.Counter(`app_reads_by_result_total{result="remote"}`, "").Add(1)
	r.Gauge("app_sessions", "open sessions").Set(-2)
	h := r.Histogram(`app_rt_seconds{path="read"}`, "rt")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.Histogram("app_empty", "never observed")

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	typed := map[string]string{}
	samples := map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln, parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
		}
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln, series)
			}
			base = series[:i]
		}
		for i := 0; i < len(base); i++ {
			c := base[i]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !ok {
				t.Fatalf("line %d: invalid metric name %q", ln, base)
			}
		}
		// Histogram sample families hang off the typed base name.
		family := base
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(base, suffix); trimmed != base && typed[trimmed] == "histogram" {
				family = trimmed
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q before its TYPE header", ln, series)
		}
		samples[series] = val
	}

	if samples["app_reads_total"] != 3 {
		t.Fatalf("app_reads_total = %v", samples["app_reads_total"])
	}
	if samples[`app_reads_by_result_total{result="local"}`] != 2 ||
		samples[`app_reads_by_result_total{result="remote"}`] != 1 {
		t.Fatalf("labelled counters wrong: %v", samples)
	}
	if samples["app_sessions"] != -2 {
		t.Fatalf("gauge = %v", samples["app_sessions"])
	}
	// Cumulative buckets, one per power of two: 1 ≤ 0.0625, 2 ≤ 0.5 and
	// ≤ 1, 3 ≤ 2 and ≤ +Inf, count 3, sum 2.55.
	if samples[`app_rt_seconds_bucket{path="read",le="0.03125"}`] != 0 ||
		samples[`app_rt_seconds_bucket{path="read",le="0.0625"}`] != 1 ||
		samples[`app_rt_seconds_bucket{path="read",le="0.5"}`] != 2 ||
		samples[`app_rt_seconds_bucket{path="read",le="1"}`] != 2 ||
		samples[`app_rt_seconds_bucket{path="read",le="2"}`] != 3 ||
		samples[`app_rt_seconds_bucket{path="read",le="+Inf"}`] != 3 {
		t.Fatalf("histogram buckets not cumulative: %v", samples)
	}
	// The ladder is fixed: an empty histogram has the same le lines, from
	// 2^minExp to 2^maxExp and +Inf.
	for _, name := range []string{`app_rt_seconds_bucket{path="read",le=`, "app_empty_bucket{le="} {
		if got, want := strings.Count(text, name), maxExp-minExp+2; got != want {
			t.Fatalf("%s: %d bucket lines, want %d", name, got, want)
		}
	}
	if samples[`app_rt_seconds_count{path="read"}`] != 3 {
		t.Fatalf("histogram count = %v", samples[`app_rt_seconds_count{path="read"}`])
	}
	if got := samples[`app_rt_seconds_sum{path="read"}`]; got < 2.54 || got > 2.56 {
		t.Fatalf("histogram sum = %v", got)
	}
}

// TestRegistryConcurrentUse is the ISSUE's -race hammer: N goroutines
// pound counters, gauges and histograms while WriteTo and Snapshot run
// concurrently, then the final totals must be exact (no torn or lost
// writes) and counter reads monotonic across successive snapshots.
func TestRegistryConcurrentUse(t *testing.T) {
	r := New()
	const (
		goroutines = 8
		iters      = 5000
	)
	c := r.Counter("hammer_ops_total", "")
	g := r.Gauge("hammer_depth", "")
	h := r.Histogram("hammer_obs", "")

	var writers, readers sync.WaitGroup
	stopReaders := make(chan struct{})
	readerErr := make(chan error, 2)

	// Reader 1: snapshots must see monotonically non-decreasing counters.
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last uint64
		for {
			select {
			case <-stopReaders:
				return
			default:
			}
			s := r.Snapshot()
			now := s.Counter("hammer_ops_total")
			if now < last {
				readerErr <- fmt.Errorf("counter went backwards: %d after %d", now, last)
				return
			}
			last = now
			hs := s.Histograms["hammer_obs"]
			var cum uint64
			for _, b := range hs.Counts {
				cum += b
			}
			if hs.Count > cum {
				readerErr <- fmt.Errorf("histogram count %d exceeds bucket sum %d", hs.Count, cum)
				return
			}
		}
	}()
	// Reader 2: WriteTo must always render parseable non-negative counters.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReaders:
				return
			default:
			}
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				readerErr <- err
				return
			}
			if !strings.Contains(sb.String(), "hammer_ops_total") {
				readerErr <- fmt.Errorf("registered series missing from exposition")
				return
			}
		}
	}()

	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j % 10))
			}
		}()
	}
	writers.Wait()
	close(stopReaders)
	readers.Wait()

	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if got := c.Load(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*iters)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	hs := h.Snapshot()
	if got := hs.Count; got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var wantSum float64
	for j := 0; j < iters; j++ {
		wantSum += float64(j % 10)
	}
	wantSum *= goroutines
	if got := hs.Sum; got != wantSum {
		t.Fatalf("histogram sum = %v, want %v (torn CAS accumulation)", got, wantSum)
	}
}

// TestObsRecordPathZeroAllocs pins the subsystem's core constraint: the
// record path — counter add, gauge move, histogram observe, trace record
// — performs zero heap allocations, so instrumenting the zero-alloc
// replay kernels cannot regress their guarantee.
func TestObsRecordPathZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("za_total", "")
	g := r.Gauge("za_depth", "")
	h := r.Histogram("za_hist", "")
	tr := NewTracer(64)
	v := 0.004
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		h.Observe(v)
		v = v*3 + 7
		tr.Record(EvAllocate, "key", "detail", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := New().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench_hist", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0001)
		}
	})
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(DefaultTraceCapacity)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(EvChaosFault, "x", "drop", 0, 0)
		}
	})
}
