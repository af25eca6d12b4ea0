package load

import (
	"math/rand"
	"testing"
	"time"

	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// row returns the named row of Cases for a test to shrink.
func row(t *testing.T, name string) Case {
	t.Helper()
	c, ok := Named(name)
	if !ok {
		t.Fatalf("no case %q in Cases", name)
	}
	return c
}

// run runs c and fails the test on an error or a failed gate.
func run(t *testing.T, c Case) Result {
	t.Helper()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(c, res); err != nil {
		t.Fatalf("%v\n%+v", err, res)
	}
	return res
}

// starvedReads is checkWriters' floor: a writer that commits fewer than
// one write per starvedReads reads of a drive worker was starved. On a
// two-vCPU host the fault-free rows read 1 in 2 to 1 in 70 (the worst at
// GOMAXPROCS 8); with drive workers that never yield the fleet row read
// 1 in 330 and below.
const starvedReads = 256

// checkWriters fails the test when the drive starved the background
// writers, which workers that never yield do. The floor is a ratio of
// counts, the writes against the reads driven beside them, not a rate:
// with more Ps than CPUs a writer's pause and its fan-out wait for an OS
// thread, and its writes fall behind the pace whether or not the drive
// yields, while the drive workers fall behind with it. Not under the
// race detector, which makes the writes themselves slow beside the reads.
func checkWriters(t *testing.T, c Case, res Result) {
	t.Helper()
	if raceDetector {
		return
	}
	perWriter := float64(res.Writes) / float64(c.Writers)
	perWorker := float64(res.Ops) / float64(res.Workers)
	if perWriter*starvedReads < perWorker {
		t.Fatalf("a background writer committed %.1f writes to a drive worker's %.0f reads, under 1 in %d: %+v",
			perWriter, perWorker, starvedReads, res)
	}
}

// TestCaseTable runs every row of Cases, shrunk, through its own gates.
func TestCaseTable(t *testing.T) {
	for _, c := range Cases {
		t.Run(c.Name, func(t *testing.T) {
			c.Sessions = min(c.Sessions, 300)
			c.Capacity = min(c.Capacity, 150)
			c.Duration = 300 * time.Millisecond
			res := run(t, c)
			if res.Ops == 0 || res.Samples == 0 || res.Writes == 0 {
				t.Fatalf("case drove no traffic: %+v", res)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	c := row(t, "fleet")
	c.Sessions, c.Duration = 10, 10*time.Millisecond
	for _, tc := range []struct {
		name string
		edit func(*Case)
	}{
		{"zero sessions", func(c *Case) { c.Sessions = 0 }},
		{"zero duration", func(c *Case) { c.Duration = 0 }},
		{"manual chaos", func(c *Case) { c.Chaos = transport.Config{Manual: true} }},
		{"non-power-of-two shard count", func(c *Case) { c.Shards = 3 }},
		{"two faults", func(c *Case) { c.Stations = 7 }},
	} {
		bad := c
		tc.edit(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("Run accepted %s", tc.name)
		}
	}
}

func TestRunSmallFleet(t *testing.T) {
	c := row(t, "fleet")
	c.Sessions, c.Shards, c.Mode, c.Duration, c.Seed = 500, 4, replica.SW(3), 200*time.Millisecond, 7
	c.Chaos = transport.Config{Drop: 0.01, Dup: 0.01}
	res := run(t, c)
	if res.Sessions != 500 || res.Shards != 4 {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.SessionsPerSec <= 0 || res.AttachSeconds <= 0 {
		t.Fatalf("attach metrics not measured: %+v", res)
	}
	if res.Ops == 0 {
		t.Fatalf("drive phase issued no reads: %+v", res)
	}
	if res.Ops < res.Errors {
		t.Fatalf("more errors than ops: %+v", res)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.ShardMin > res.ShardMax || res.ShardMax == 0 {
		t.Fatalf("shard spread wrong: min=%d max=%d", res.ShardMin, res.ShardMax)
	}
	if res.Writes == 0 {
		t.Fatalf("background writers committed nothing: %+v", res)
	}
}

// TestResultPercentilesAreMergedQuantiles: a run's percentiles and Max
// are the Quantile and Max of its drive workers' merged histograms, and
// so equal what a registered histogram that saw every sample serves to
// a scrape.
func TestResultPercentilesAreMergedQuantiles(t *testing.T) {
	reg := obs.New()
	all := reg.Histogram("load_read_ns", "")
	perWorker := make([]workerStats, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		d := float64(rng.Int63n(1 << (1 + rng.Intn(34))))
		perWorker[i%len(perWorker)].lat.Observe(d)
		all.Observe(d)
	}
	var r Result
	r.tally(perWorker)
	s := reg.Snapshot().Histograms["load_read_ns"]
	if r.Samples != 3000 || r.P99 != time.Duration(s.Quantile(0.99)) || r.Max != time.Duration(s.Max) {
		t.Fatalf("run reports %d samples, p99 %v, max %v; the merged histogram %d, %v, %v",
			r.Samples, r.P99, r.Max, s.Count, time.Duration(s.Quantile(0.99)), time.Duration(s.Max))
	}
	if r.P50 != time.Duration(s.Quantile(0.5)) || r.P90 != time.Duration(s.Quantile(0.9)) {
		t.Fatalf("p50 %v, p90 %v; the merged histogram %v, %v",
			r.P50, r.P90, time.Duration(s.Quantile(0.5)), time.Duration(s.Quantile(0.9)))
	}
}

// TestRecorderRecordDoesNotAllocate pins a drive worker's latency record,
// its own zero-value histogram, at 0 allocs over changing durations.
func TestRecorderRecordDoesNotAllocate(t *testing.T) {
	var st workerStats
	d := time.Duration(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		st.lat.Observe(float64(d))
		d = (d*3 + 7) % (17 * time.Second)
	}); allocs != 0 {
		t.Fatalf("record allocates %v times per call, want 0", allocs)
	}
}

func TestRunOverloadValidation(t *testing.T) {
	c := row(t, "overload")
	c.Duration = 10 * time.Millisecond
	c.Capacity = -1
	if _, err := Run(c); err == nil {
		t.Error("Run accepted a negative capacity")
	}
	c.Capacity, c.Sessions = 10, 0
	if _, err := Run(c); err == nil {
		t.Error("Run accepted an empty attempted fleet")
	}
}

// TestRunOverloadTwiceCapacity is the scenario in miniature: 2x capacity
// attempts, 10% of the admitted fleet stalled. Every refused attach must
// have received a Busy frame, the healthy fleet must have been served,
// and teardown must leak nothing.
func TestRunOverloadTwiceCapacity(t *testing.T) {
	c := row(t, "overload")
	c.Sessions, c.Capacity, c.Mode, c.Shards = 600, 300, replica.SW(3), 4
	c.Duration, c.MemSoftLimit, c.Seed = 300*time.Millisecond, 32<<20, 7
	c.Expect.MaxGoroutineGrowth = 5
	res := run(t, c)
	if res.Sessions != 600 || res.Admitted != 300 || res.Rejected != 300 {
		t.Fatalf("admission counts wrong: %+v", res)
	}
	if res.Stalled != 30 {
		t.Fatalf("stalled %d clients, want 30 (10%% of 300)", res.Stalled)
	}
	if res.Ops == 0 || res.Samples == 0 {
		t.Fatalf("healthy fleet was not driven: %+v", res)
	}
	if res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.HeapPeakBytes == 0 || res.MemAccountPeak == 0 {
		t.Fatalf("memory watchdogs sampled nothing: %+v", res)
	}
}

// TestRunOverloadSheds squeezes the watermark far below the fleet's base
// cost so the shed ticker must evict sessions mid-run.
func TestRunOverloadSheds(t *testing.T) {
	c := row(t, "overload")
	c.Sessions, c.Capacity, c.Mode, c.Shards = 150, 100, replica.Static2(), 2
	c.Duration, c.Seed = 300*time.Millisecond, 3
	c.MemSoftLimit = 20 << 10 // 100 sessions cost >50KiB base: always over
	res := run(t, c)
	if res.Shed == 0 {
		t.Fatalf("watermark below base cost but nothing was shed: %+v", res)
	}
}

// TestRunFaultFree: with no chaos at all, every read over the in-memory
// transport completes error-free, and the writers keep writing. The read
// timeout is a second, not the row's 25 ms: without faults a read can
// only miss that by waiting for a CPU, which a host running other tests
// can make take longer, while a lost read still fails.
func TestRunFaultFree(t *testing.T) {
	c := row(t, "fleet")
	c.Sessions, c.Shards, c.Mode, c.Duration, c.Seed = 128, 2, replica.Static2(), 100*time.Millisecond, 1
	c.Chaos, c.Timeout = transport.Config{}, time.Second
	res := run(t, c)
	if res.Errors != 0 {
		t.Fatalf("fault-free run reported %d errors", res.Errors)
	}
	checkWriters(t, c, res)
}
