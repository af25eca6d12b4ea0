package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// kernelModels are the paper's two models, the message model at three
// control-message prices.
func kernelModels() []cost.Model {
	return []cost.Model{cost.NewConnection(), cost.NewMessage(0.0), cost.NewMessage(0.37), cost.NewMessage(1.0)}
}

// kernelPolicies are the policies of the paper's sweeps.
func kernelPolicies() []Factory {
	return []Factory{
		func() core.Policy { return core.NewST1() },
		func() core.Policy { return core.NewST2() },
		func() core.Policy { return core.NewSW(1) },
		func() core.Policy { return core.NewSW(3) },
		func() core.Policy { return core.NewSW(9) },
		func() core.Policy { return core.NewSW(95) },
	}
}

// TestKernelEquivalenceBernoulli holds the drawn path to the materialized
// one: on the same seed the kernel's Result must equal the step-by-step
// reference's on workload.Bernoulli's schedule, field for field, including
// the bit pattern of the float totals.
func TestKernelEquivalenceBernoulli(t *testing.T) {
	const seed, n, warmup = 77, 20000, 500
	for _, m := range kernelModels() {
		for _, f := range kernelPolicies() {
			p := f()
			name := fmt.Sprintf("%s/%s", p.Name(), m.Name())
			kn, _ := NewKernel(f(), m)
			for _, theta := range []float64{0, 0.2, 0.5, 0.8, 1} {
				s := workload.Bernoulli(stats.NewRNG(seed), theta, n)
				want := referenceReplay(f(), m, s, warmup)
				got := kn.ReplayBernoulli(stats.NewRNG(seed), theta, n, warmup)
				if got != want {
					t.Fatalf("%s theta=%v:\nkernel    %+v\nreference %+v", name, theta, got, want)
				}
			}
		}
	}
}

// TestKernelEquivalenceDrifting repeats the guard under the period model.
func TestKernelEquivalenceDrifting(t *testing.T) {
	const seed, periods, opsPerPeriod = 41, 50, 300
	for _, m := range kernelModels() {
		for _, f := range kernelPolicies() {
			p := f()
			name := fmt.Sprintf("%s/%s", p.Name(), m.Name())
			kn, _ := NewKernel(f(), m)
			s, _ := workload.Drifting(stats.NewRNG(seed), periods, opsPerPeriod)
			want := referenceReplay(f(), m, s, 0)
			got := kn.ReplayDrifting(stats.NewRNG(seed), periods, opsPerPeriod)
			if got != want {
				t.Fatalf("%s:\nkernel    %+v\nreference %+v", name, got, want)
			}
		}
	}
}

// TestKernelRejectsUnknown was the fused kernels' fallback pin: a policy
// or model they did not know had to be refused, so that a fast path could
// not silently misprice it. There is no fast path to fall back from now;
// the pairs it refused take the one engine and must equal the reference,
// drawn (twice, the second after the kernel's own Reset) and drifting.
func TestKernelRejectsUnknown(t *testing.T) {
	type customModel struct{ cost.Connection }
	const seed, n, warmup = 5, 3*blockOps + 7, 100
	for _, tc := range []struct {
		mk Factory
		m  cost.Model
	}{
		{func() core.Policy { return core.NewT1(3) }, cost.NewConnection()},
		{func() core.Policy { return core.NewEWMA(0.5) }, cost.NewMessage(0.5)},
		{func() core.Policy { return core.NewSWInitial(5, sched.Read) }, cost.NewConnection()},
		{swFactory(3), customModel{}},
		{swFactory(3), oddModel{}},
	} {
		kn, ok := NewKernel(tc.mk(), tc.m)
		if !ok {
			t.Fatalf("%s under %s: no kernel", tc.mk().Name(), tc.m.Name())
		}
		want := referenceReplay(tc.mk(), tc.m, workload.Bernoulli(stats.NewRNG(seed), 0.4, n), warmup)
		for round := 1; round <= 2; round++ {
			if got := kn.ReplayBernoulli(stats.NewRNG(seed), 0.4, n, warmup); got != want {
				t.Fatalf("%s under %s, replay %d:\nkernel    %+v\nreference %+v", tc.mk().Name(), tc.m.Name(), round, got, want)
			}
		}
		s, _ := workload.Drifting(stats.NewRNG(seed), 13, 250)
		want = referenceReplay(tc.mk(), tc.m, s, 0)
		if got := kn.ReplayDrifting(stats.NewRNG(seed), 13, 250); got != want {
			t.Fatalf("%s under %s, drifting:\nkernel    %+v\nreference %+v", tc.mk().Name(), tc.m.Name(), got, want)
		}
	}
}

// TestStreamsMatchWorkload pins the contract that the streaming draws are
// bit-identical to the materializing generators at the same seed.
func TestStreamsMatchWorkload(t *testing.T) {
	const seed, n = 99, 5000
	want := workload.Bernoulli(stats.NewRNG(seed), 0.42, n)
	src := NewBernoulliStream(stats.NewRNG(seed), 0.42)
	for i, op := range want {
		if got := src.Next(); got != op {
			t.Fatalf("bernoulli stream diverges at %d: %v != %v", i, got, op)
		}
	}

	const periods, opsPerPeriod = 20, 250
	drifted, _ := workload.Drifting(stats.NewRNG(seed), periods, opsPerPeriod)
	dsrc := NewDriftingStream(stats.NewRNG(seed), opsPerPeriod)
	for i, op := range drifted {
		if got := dsrc.Next(); got != op {
			t.Fatalf("drifting stream diverges at %d: %v != %v", i, got, op)
		}
	}
}

// TestGeneratorsGolden pins the bytes the three generators produce at a
// fixed seed: their inner loops may change shape (a conditional move for
// an if/else store), the draws and their order may not.
func TestGeneratorsGolden(t *testing.T) {
	const seed, n = 1994, 4096
	drifting, _ := workload.Drifting(stats.NewRNG(seed), 16, 256)
	bursty, _ := workload.Bursty(stats.NewRNG(seed), workload.BurstyConfig{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 1.0 / 64}, n)
	for _, tc := range []struct {
		name string
		s    sched.Schedule
		want uint64
	}{
		{"Bernoulli", workload.Bernoulli(stats.NewRNG(seed), 0.42, n), 0x330eab637c01ba17},
		{"Drifting", drifting, 0x1106d47a43f697ad},
		{"Bursty", bursty, 0xf055bf7167a41589},
	} {
		h := fnv.New64a()
		for _, op := range tc.s {
			h.Write([]byte{byte(op)})
		}
		if got := h.Sum64(); len(tc.s) != n || got != tc.want {
			t.Errorf("%s: %d requests hash to %#x, want %d hashing to %#x", tc.name, len(tc.s), got, n, tc.want)
		}
	}
}

// TestReplayStreamMatchesReplay checks the streaming path against the
// materializing one, through a generator the engine fills blocks from and
// through a stream it only knows by Next.
func TestReplayStreamMatchesReplay(t *testing.T) {
	const seed, n, warmup = 13, 10000, 200
	m := cost.NewMessage(0.5)
	s := workload.Bernoulli(stats.NewRNG(seed), 0.6, n)
	want := Replay(core.NewT2(4), m, s, warmup)
	got := ReplayStream(core.NewT2(4), m, NewBernoulliStream(stats.NewRNG(seed), 0.6), n, warmup)
	if got != want {
		t.Fatalf("stream %+v != materialized %+v", got, want)
	}
	got = ReplayStream(core.NewT2(4), m, &sliceStream{ops: s}, n, warmup)
	if got != want {
		t.Fatalf("Next-only stream %+v != materialized %+v", got, want)
	}
}

// sliceStream is an OpStream the engine has no block fill for.
type sliceStream struct {
	ops sched.Schedule
	at  int
}

func (s *sliceStream) Next() sched.Op {
	s.at++
	return s.ops[s.at-1]
}

// TestEstimatorsUnchangedByFusedPath pins the estimators' values against
// hand-rolled step-by-step replays of the materialized schedules: drawing
// the requests block by block must not move a single bit of the reported
// means.
func TestEstimatorsUnchangedByFusedPath(t *testing.T) {
	m := cost.NewMessage(0.8)
	opts := ExpectedOpts{Theta: 0.45, Ops: 8000, Warmup: 300, Trials: 5, Seed: 1994}
	got := EstimateExpected(swFactory(7), m, opts)
	var want stats.Summary
	for trial := 0; trial < opts.Trials; trial++ {
		rng := stats.NewRNG(opts.Seed + uint64(trial)*0x9e3779b9)
		s := workload.Bernoulli(rng, opts.Theta, opts.Warmup+opts.Ops)
		want.Add(referenceReplay(core.NewSW(7), m, s, opts.Warmup).PerOp())
	}
	if got.Mean() != want.Mean() {
		t.Fatalf("EstimateExpected mean moved: %v != %v", got.Mean(), want.Mean())
	}

	aopts := AverageOpts{Periods: 40, OpsPerPeriod: 200, Trials: 5, Seed: 7}
	gotAvg := EstimateAverage(swFactory(3), m, aopts)
	var wantAvg stats.Summary
	for trial := 0; trial < aopts.Trials; trial++ {
		rng := stats.NewRNG(aopts.Seed + uint64(trial)*0x9e3779b9)
		s, _ := workload.Drifting(rng, aopts.Periods, aopts.OpsPerPeriod)
		wantAvg.Add(referenceReplay(core.NewSW(3), m, s, 0).PerOp())
	}
	if gotAvg.Mean() != wantAvg.Mean() {
		t.Fatalf("EstimateAverage mean moved: %v != %v", gotAvg.Mean(), wantAvg.Mean())
	}
}

// TestSchedulePoolRoundTrip exercises the pooled buffers.
func TestSchedulePoolRoundTrip(t *testing.T) {
	s := GetSchedule(1024)
	if len(s) != 1024 {
		t.Fatalf("len = %d", len(s))
	}
	workload.FillBernoulli(stats.NewRNG(1), 0.5, s)
	PutSchedule(s)
	// A second Get of no larger size may reuse the buffer; contents must
	// be fully overwritten by FillBernoulli regardless.
	s2 := GetSchedule(512)
	workload.FillBernoulli(stats.NewRNG(2), 0, s2)
	for i, op := range s2 {
		if op != sched.Read {
			t.Fatalf("stale byte at %d after FillBernoulli(theta=0): %v", i, op)
		}
	}
	PutSchedule(s2)
	PutSchedule(nil) // must not panic
}

// BenchmarkRecordReplay prices the per-replay instrumentation: two
// clock reads around the block loop plus recordReplay's counter adds
// and one histogram observation. The acceptance budget is <5% of a
// replay call; at ~100ns against the ~0.4ms a quick-mode replay of
// 10^5 requests takes, the measured share is under 0.03%.
func BenchmarkRecordReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		recordReplay(kindSW, 100_000, time.Since(start))
	}
}

// replaysBelow1ns counts the speed histogram's observations in buckets
// below 1 ns a request.
func replaysBelow1ns() uint64 {
	h := simReg.Snapshot().Histograms["mobirep_sim_replay_ns_per_op"]
	var n uint64
	for i, bound := range h.Bounds {
		if bound < 1 {
			n += h.Counts[i]
		}
	}
	return n
}

// TestReplayHistogramResolvesBlockSpeed pins the speed histogram's ladder
// below the block forms: a 64k-request ST1 replay, priced from its copy
// bits, must be observed below 1 ns a request. The best of ten replays
// counts, so one that was preempted does not fail it. The race detector
// and coverage instrumentation both add work to every block, so the
// replay is not that fast under either; TestReplayHistogramLadder pins
// the ladder itself in every mode.
func TestReplayHistogramResolvesBlockSpeed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments every load")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation counts every basic block")
	}
	s := workload.Bernoulli(stats.NewRNG(3), 0.5, 1<<16)
	before := replaysBelow1ns()
	for range 10 {
		Replay(core.NewST1(), cost.NewConnection(), s, 0)
	}
	if replaysBelow1ns() == before {
		t.Fatal("no 64k-request ST1 replay of ten was observed below 1 ns a request")
	}
}

// TestReplayHistogramLadder: a replay at block-form speed — 64k requests
// in 30 µs, about 0.46 ns a request — is recorded in a bucket below 1 ns.
// It feeds recordReplay a fixed duration, so it holds with or without
// instrumentation.
func TestReplayHistogramLadder(t *testing.T) {
	before := replaysBelow1ns()
	recordReplay(kindST1, 1<<16, 30*time.Microsecond)
	if got := replaysBelow1ns() - before; got != 1 {
		t.Fatalf("a 0.46 ns/request replay added %d observations below 1 ns, want 1", got)
	}
}

// TestReplayRecordedOnEveryEntryPoint pins the engine's observability:
// all six kinds are in the registry (init puts them there, not the first
// replay of a kind, so a scrape sees the zeros), and every entry
// point — Replay, ReplayStream, both Kernel methods — records exactly one
// replay, its priced requests and one speed observation, under the kind
// of its policy's block form.
func TestReplayRecordedOnEveryEntryPoint(t *testing.T) {
	snap := simReg.Snapshot()
	for _, kind := range kindNames {
		for _, series := range []string{"mobirep_sim_replays_total", "mobirep_sim_replay_ops_total"} {
			if _, ok := snap.Counters[series+`{kind="`+kind+`"}`]; !ok {
				t.Errorf(`%s{kind=%q} is not registered at init`, series, kind)
			}
		}
	}
	const n, warmup = 2*blockOps + 3, 10
	m := cost.NewConnection()
	s := workload.Bernoulli(stats.NewRNG(1), 0.5, n)
	for _, tc := range []struct {
		kind replayKind
		mk   Factory
	}{
		{kindSW, swFactory(5)},
		{kindST1, func() core.Policy { return core.NewST1() }},
		{kindST2, func() core.Policy { return core.NewST2() }},
		{kindT1, func() core.Policy { return core.NewT1(2) }},
		{kindT2, func() core.Policy { return core.NewT2(2) }},
		{kindGeneric, func() core.Policy { return core.NewEWMA(0.3) }},
		{kindGeneric, func() core.Policy { return core.NewEvenSW(4) }},
	} {
		kn, _ := NewKernel(tc.mk(), m)
		for entry, run := range map[string]func(){
			"Replay":          func() { Replay(tc.mk(), m, s, warmup) },
			"ReplayStream":    func() { ReplayStream(tc.mk(), m, NewBernoulliStream(stats.NewRNG(1), 0.5), n, warmup) },
			"ReplayBernoulli": func() { kn.ReplayBernoulli(stats.NewRNG(1), 0.5, n, warmup) },
			"ReplayDrifting":  func() { kn.ReplayDrifting(stats.NewRNG(1), 1, n-warmup) },
		} {
			replays, ops, observed := mReplays[tc.kind].Load(), mReplayOps[tc.kind].Load(), hReplayNsPerOp.Count()
			run()
			if got := mReplays[tc.kind].Load() - replays; got != 1 {
				t.Errorf("%s of %s: %d replays recorded under %q, want 1", entry, tc.mk().Name(), got, kindNames[tc.kind])
			}
			if got := mReplayOps[tc.kind].Load() - ops; got != n-warmup {
				t.Errorf("%s of %s: %d requests recorded under %q, want %d", entry, tc.mk().Name(), got, kindNames[tc.kind], n-warmup)
			}
			if got := hReplayNsPerOp.Count() - observed; got != 1 {
				t.Errorf("%s of %s: %d speed observations, want 1", entry, tc.mk().Name(), got)
			}
		}
	}
}
