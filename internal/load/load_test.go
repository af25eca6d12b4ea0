package load

import (
	"testing"
	"time"

	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Sessions: 0, Mode: replica.Static2()}); err == nil {
		t.Error("Run accepted zero sessions")
	}
	if _, err := Run(Config{Sessions: 10, Mode: replica.Static2(), Chaos: transport.Config{Manual: true}}); err == nil {
		t.Error("Run accepted manual chaos")
	}
	if _, err := Run(Config{Sessions: 10, Mode: replica.Static2(), Shards: 3}); err == nil {
		t.Error("Run accepted a non-power-of-two shard count")
	}
}

func TestRunSmallFleet(t *testing.T) {
	res, err := Run(Config{
		Sessions: 500,
		Shards:   4,
		Mode:     replica.SW(3),
		Duration: 200 * time.Millisecond,
		Chaos:    transport.Config{Drop: 0.01, Dup: 0.01},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestPercentileNearestRank pins the exact nearest-rank semantics: index
// ceil(q*n)-1, so p99 of exactly 100 samples is the 99th value, not the
// maximum, and tiny sample sets degrade predictably to the max.
func TestPercentileNearestRank(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i + 1)
	}
	if got := percentile(samples, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(samples, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if got := percentile(samples, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
	small := samples[:50]
	if got := percentile(small, 0.99); got != 50 {
		t.Errorf("p99 of 1..50 = %d, want 50 (the max: fewer than 100 samples)", got)
	}
	if got := percentile(small, 0.50); got != 25 {
		t.Errorf("p50 of 1..50 = %d, want 25", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of no samples = %d, want 0", got)
	}
	if got := percentile(samples[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %d, want that sample", got)
	}
}

func TestRunOverloadValidation(t *testing.T) {
	if _, err := RunOverload(OverloadConfig{Capacity: 0, Mode: replica.Static2()}); err == nil {
		t.Error("RunOverload accepted zero capacity")
	}
	if _, err := RunOverload(OverloadConfig{Capacity: 10, Factor: -1, Mode: replica.Static2()}); err == nil {
		t.Error("RunOverload accepted a negative factor")
	}
}

// TestRunOverloadTwiceCapacity is the scenario in miniature: 2x capacity
// attempts, 10% of the admitted fleet stalled. Every refused attach must
// have received a Busy frame, the healthy fleet must have been served,
// and teardown must leak nothing.
func TestRunOverloadTwiceCapacity(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Capacity:     300,
		Factor:       2,
		StalledFrac:  0.1,
		Mode:         replica.SW(3),
		Shards:       4,
		Duration:     300 * time.Millisecond,
		MemSoftLimit: 32 << 20,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 600 || res.Admitted != 300 || res.Rejected != 300 {
		t.Fatalf("admission counts wrong: %+v", res)
	}
	if res.BusyFrames != res.Rejected {
		t.Fatalf("rejected %d clients but %d Busy frames received: every refusal must be answered",
			res.Rejected, res.BusyFrames)
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
	if res.GoroutinesAfter > res.GoroutinesBefore+5 {
		t.Fatalf("goroutines leaked across the run: before=%d after=%d",
			res.GoroutinesBefore, res.GoroutinesAfter)
	}
}

// TestRunOverloadSheds squeezes the watermark far below the fleet's base
// cost so the shed ticker must evict sessions mid-run.
func TestRunOverloadSheds(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Capacity:     100,
		Factor:       1.5,
		StalledFrac:  0.1,
		Mode:         replica.Static2(),
		Shards:       2,
		Duration:     300 * time.Millisecond,
		MemSoftLimit: 20 << 10, // 100 sessions cost >50KiB base: always over
		ShedEvery:    20 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("watermark below base cost but nothing was shed: %+v", res)
	}
	if res.BusyFrames != res.Rejected {
		t.Fatalf("rejected %d clients but %d Busy frames received", res.Rejected, res.BusyFrames)
	}
}

// TestRunFaultFree: with no chaos at all, every read over the in-memory
// transport completes error-free. The read timeout is a second, not the
// 25 ms default: without faults a read can only miss the default by
// waiting for a CPU, which a host running other tests can make take
// longer, while a lost read still fails.
func TestRunFaultFree(t *testing.T) {
	res, err := Run(Config{
		Sessions: 128,
		Shards:   2,
		Mode:     replica.Static2(),
		Duration: 100 * time.Millisecond,
		Timeout:  time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("fault-free run reported %d errors", res.Errors)
	}
}
