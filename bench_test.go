package mobirep

// Benchmark harness: every experiment in quick mode (E01-E13 reproduce
// the paper's artifacts, E14-E22 the extensions), micro-benchmarks of the
// hot paths, and the ablation studies DESIGN.md calls out. Regenerate the
// full-size tables with cmd/mobirep-bench.

import (
	"fmt"
	"testing"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/db"
	"mobirep/internal/experiments"
	"mobirep/internal/offline"
	"mobirep/internal/replica"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
	"mobirep/internal/workload"
)

// BenchmarkExperiments runs every row of the experiment table in quick
// mode, one sub-benchmark per ID (BenchmarkExperiments/E05 picks one).
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Seed: 1994, Quick: true}
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(e.Run(cfg)) == 0 {
					b.Fatalf("%s produced no tables", e.ID)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot paths -----------------------------------

func BenchmarkPolicyApplySW9(b *testing.B) {
	p := core.NewSW(9)
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(rng, 0.5, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(s[i&(1<<16-1)])
	}
}

func BenchmarkPolicyApplySW95(b *testing.B) {
	p := core.NewSW(95)
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(rng, 0.5, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(s[i&(1<<16-1)])
	}
}

func BenchmarkPolicyApplyT1(b *testing.B) {
	p := core.NewT1(15)
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(rng, 0.5, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(s[i&(1<<16-1)])
	}
}

// BenchmarkPolicyApplyBlock is the policies' half of a replay alone: the
// block forms that turn requests into copy bits, with no pricing. What
// BenchmarkReplayThroughput takes beyond the SW9 row is the price loop.
func BenchmarkPolicyApplyBlock(b *testing.B) {
	s := workload.Bernoulli(stats.NewRNG(1), 0.4, 1024)
	has := make([]uint64, len(s)/64)
	for _, p := range []core.BlockPolicy{core.NewST1(), core.NewSW(9), core.NewSW(95), core.NewT1(5), core.NewT2(5)} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.ApplyBlock(s, has)
			}
			reportStep(b, len(s))
		})
	}
}

// reportStep reports the time one replayed request took, the unit README
// "Performance" and the repository benchmark's sim.ns_per_step_* speak in.
func reportStep(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/step")
}

// BenchmarkReplayThroughput replays a materialized schedule: the policy's
// block loop and the price loop, nothing else.
func BenchmarkReplayThroughput(b *testing.B) {
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(rng, 0.4, 100000)
	m := cost.NewMessage(0.5)
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewSW(9)
		sim.Replay(p, m, s, 0)
	}
	reportStep(b, len(s))
}

// BenchmarkReplayFusedSW9 is BenchmarkReplayThroughput with the schedule
// never materialized: same policy, model and workload through a Kernel,
// which fills each block from the RNG. The difference between the two is
// the generator.
func BenchmarkReplayFusedSW9(b *testing.B) {
	m := cost.NewMessage(0.5)
	kn, _ := sim.NewKernel(core.NewSW(9), m)
	rng := stats.NewRNG(1)
	const n = 100000
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.ReplayBernoulli(rng, 0.4, n, 0)
	}
	reportStep(b, n)
}

// BenchmarkReplayStream is the same through ReplayStream and a threshold
// policy; the stream is one the engine fills blocks from.
func BenchmarkReplayStream(b *testing.B) {
	m := cost.NewMessage(0.5)
	const n = 100000
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(1)
		src := sim.NewBernoulliStream(rng, 0.4)
		sim.ReplayStream(core.NewT1(5), m, src, n, 0)
	}
	reportStep(b, n)
}

// BenchmarkParallelTrials measures a full estimator call — trial fan-out on
// the shared worker pool included — at the sequential baseline and at eight
// workers. The ns/op gap between the sub-benchmarks is the engine speedup.
func BenchmarkParallelTrials(b *testing.B) {
	m := cost.NewConnection()
	opts := sim.ExpectedOpts{Theta: 0.4, Ops: 20000, Trials: 8, Seed: 7}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := sim.SetMaxWorkers(workers)
			defer sim.SetMaxWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.EstimateExpected(func() core.Policy { return core.NewSW(9) }, m, opts)
			}
		})
	}
}

// TestFusedKernelZeroAllocs is the replay engine's allocation budget:
// once the policy, the kernel and the RNG exist, a replay allocates
// nothing on any entry point — the blocks of ops and codes are the
// engine's stack, which holds only while nothing hands them to an
// interface method. Replay is pinned for every policy with a block form
// under both models; the drawn paths for those and for one without; and
// offline.Cost under both comparators.
func TestFusedKernelZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(stats.NewRNG(2), 0.4, 1<<16)
	for _, m := range []cost.Model{cost.NewConnection(), cost.NewMessage(0.5)} {
		for _, p := range []core.Policy{
			core.NewST1(), core.NewST2(), core.NewSW(1), core.NewSW(9), core.NewSW(95),
			core.NewT1(4), core.NewT2(4), core.NewEWMA(0.3),
		} {
			name := p.Name() + "/" + m.Name()
			kn, _ := sim.NewKernel(p, m)
			for _, tc := range []struct {
				entry string
				run   func()
			}{
				{"Replay", func() { sim.Replay(p, m, s, 100) }},
				{"ReplayBernoulli", func() { kn.ReplayBernoulli(rng, 0.4, 5000, 100) }},
				{"ReplayDrifting", func() { kn.ReplayDrifting(rng, 20, 250) }},
			} {
				if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
					t.Errorf("%s: %s allocated %.0f times per run, want 0", name, tc.entry, allocs)
				}
			}
		}
	}
	// ReplayStream takes its stream from the caller; with the stream built
	// outside, the replay itself allocates nothing.
	src := sim.NewBernoulliStream(rng, 0.4)
	drift := sim.NewDriftingStream(rng, 250)
	p, m := core.NewT1(5), cost.Model(cost.NewMessage(0.5))
	for name, run := range map[string]func(){
		"bernoulli": func() { sim.ReplayStream(p, m, src, 5000, 100) },
		"drifting":  func() { sim.ReplayStream(p, m, drift, 5000, 0) },
	} {
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("ReplayStream(%s) allocated %.0f times per run, want 0", name, allocs)
		}
	}
	// The offline optimum every replay is compared with: the closed form
	// and the dynamic program.
	for _, c := range []offline.Costs{offline.Ideal(), offline.Handicapped(0.5)} {
		if allocs := testing.AllocsPerRun(10, func() { offline.Cost(s, c) }); allocs != 0 {
			t.Errorf("offline.Cost under %+v allocated %.0f times per run, want 0", c, allocs)
		}
	}
}

// TestPolicyApplyZeroAllocs pins the per-request budget of the window
// kernel: once a policy exists, Apply never allocates — the window is a
// value inside the policy, and the adaptive window counts its newest k
// bits from the packed words instead of materializing a schedule.
func TestPolicyApplyZeroAllocs(t *testing.T) {
	s := workload.Bernoulli(stats.NewRNG(1), 0.5, 4096)
	for _, p := range []core.Policy{
		core.NewSW(9), core.NewSW(95), core.NewEvenSW(4),
		core.NewAdaptiveSW(3, 63), core.NewT1(15), core.NewT2(15),
	} {
		allocs := testing.AllocsPerRun(10, func() {
			for _, op := range s {
				p.Apply(op)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d Apply calls allocated %.0f times, want 0", p.Name(), len(s), allocs)
		}
	}
}

func BenchmarkPiK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		analytic.PiK(95, 0.37)
	}
}

func BenchmarkExpSWMsg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		analytic.ExpSWMsg(21, 0.37, 0.5)
	}
}

// BenchmarkOfflineCost is the paper's offline optimum per request: the
// closed form under Ideal costs and the dynamic program under a
// handicapped comparator, on a coin-flip schedule (mean run of two, the
// hard case for a branch on the request kind) and on a bursty one.
func BenchmarkOfflineCost(b *testing.B) {
	const n = 1 << 18
	bursty, _ := workload.Bursty(stats.NewRNG(2),
		workload.BurstyConfig{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 1.0 / 64}, n)
	for _, sc := range []struct {
		name string
		s    sched.Schedule
	}{
		{"bernoulli(0.5)", workload.Bernoulli(stats.NewRNG(1), 0.5, n)},
		{"bursty", bursty},
	} {
		for _, c := range []struct {
			name  string
			costs offline.Costs
		}{
			{"ideal", offline.Ideal()},
			{"handicapped(0.5)", offline.Handicapped(0.5)},
		} {
			b.Run(sc.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					offline.Cost(sc.s, c.costs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/req")
			})
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	msg := wire.Message{
		Kind: wire.KindReadResp, Key: "weather:ORD",
		Value: make([]byte, 256), Version: 42, Allocate: true,
		Window: core.WindowOf(sched.MustParse("rrwrwrwrw")),
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.AppendEncode(buf.B[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		buf.B = frame
		if _, err := wire.DecodeBorrowed(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolReadLocal(b *testing.B) {
	cli, srv := benchPair(b, replica.SW(3))
	srv.Write("x", []byte("v"))
	cli.Read("x")
	cli.Read("x") // allocate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Read("x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolWriteProp(b *testing.B) {
	cli, srv := benchPair(b, replica.Static2())
	srv.Write("x", []byte("v"))
	cli.Read("x") // allocate permanently
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Write("x", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPair(b *testing.B, mode replica.Mode) (*replica.Client, *replica.Server) {
	b.Helper()
	a, bb := transport.NewMemPair()
	srv, err := replica.NewServer(db.NewStore(), mode)
	if err != nil {
		b.Fatal(err)
	}
	srv.Attach(a)
	cli, err := replica.NewClient(bb, mode)
	if err != nil {
		b.Fatal(err)
	}
	return cli, srv
}

func BenchmarkRNGUint64(b *testing.B) {
	r := stats.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkDBPut(b *testing.B) {
	s := db.NewStore()
	v := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("x", v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------
//
// These report design-choice metrics via b.ReportMetric rather than just
// time: run with -bench Ablation -benchtime 1x to read them.

// BenchmarkAblationWindowSize quantifies the AVG-vs-competitiveness
// trade-off that the window size controls.
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, k := range []int{1, 3, 9, 15, 39} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = analytic.AvgSWConn(k)
			}
			b.ReportMetric(analytic.AvgSWConn(k), "avg-cost")
			b.ReportMetric(analytic.CompetitiveSWConn(k), "competitive-factor")
		})
	}
}

// BenchmarkAblationSW1Suppression measures what the SW1 delete-request
// optimization saves: SW1 versus a window-1 policy that propagates data
// on the deallocating write (costing 1+omega instead of omega).
func BenchmarkAblationSW1Suppression(b *testing.B) {
	const theta, omega = 0.5, 0.5
	rng := stats.NewRNG(1)
	s := workload.Bernoulli(rng, theta, 200000)
	m := cost.NewMessage(omega)
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = sim.Replay(core.NewSW(1), m, s, 0).PerOp()
		// Unsuppressed variant: re-price the same steps with suppression
		// stripped, turning each omega write into 1+omega.
		p := core.NewSW(1)
		total := 0.0
		for _, op := range s {
			st := p.Apply(op)
			st.DataSuppressed = false
			total += m.StepCost(st)
		}
		without = total / float64(len(s))
	}
	b.ReportMetric(with, "perop-suppressed")
	b.ReportMetric(without, "perop-unsuppressed")
	b.ReportMetric(without-with, "saving")
}

// BenchmarkAblationHandicappedOptimal shows how much of the competitive
// gap comes from the comparator's control-message immunity: ratios against
// an offline optimum that must pay omega like everyone else.
func BenchmarkAblationHandicappedOptimal(b *testing.B) {
	s := workload.SWkAdversary(9, 500)
	m := cost.NewMessage(0.5)
	var idealRatio, handicappedRatio float64
	for i := 0; i < b.N; i++ {
		p := core.NewSW(9)
		online := 0.0
		for _, op := range s {
			online += m.StepCost(p.Apply(op))
		}
		idealRatio = online / offline.Cost(s, offline.Ideal())
		handicappedRatio = online / offline.Cost(s, offline.Handicapped(0.5))
	}
	b.ReportMetric(idealRatio, "ratio-vs-ideal")
	b.ReportMetric(handicappedRatio, "ratio-vs-handicapped")
}

// BenchmarkAblationWindowTransfer weighs the piggybacked window handoff:
// bytes on the wire per handoff message with and without window bits.
func BenchmarkAblationWindowTransfer(b *testing.B) {
	withWin := wire.Message{Kind: wire.KindDeleteReq, Key: "x",
		Window: core.WindowOf(sched.Block(sched.Read, 95))}
	withoutWin := wire.Message{Kind: wire.KindDeleteReq, Key: "x"}
	var sizeWith, sizeWithout int
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	for i := 0; i < b.N; i++ {
		fw, err := wire.AppendEncode(buf.B[:0], withWin)
		if err != nil {
			b.Fatal(err)
		}
		sizeWith = len(fw)
		fo, err := wire.AppendEncode(fw[:0], withoutWin)
		if err != nil {
			b.Fatal(err)
		}
		sizeWithout = len(fo)
		buf.B = fo
	}
	b.ReportMetric(float64(sizeWith), "bytes-with-window-k95")
	b.ReportMetric(float64(sizeWithout), "bytes-without-window")
}
