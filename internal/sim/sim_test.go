package sim

import (
	"math"
	"strings"
	"testing"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

func swFactory(k int) Factory { return func() core.Policy { return core.NewSW(k) } }

func TestReplayCountsAndCost(t *testing.T) {
	p := core.NewSW(1)
	m := cost.NewConnection()
	// Starts without a copy; (r w r w): r=1 (alloc), w=1 (dealloc), ...
	res := Replay(p, m, sched.MustParse("rwrw"), 0)
	if res.Ops != 4 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Cost != 4 {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Allocations != 2 || res.Deallocations != 2 {
		t.Fatalf("alloc/dealloc = %d/%d", res.Allocations, res.Deallocations)
	}
	if res.CopySteps != 2 {
		t.Fatalf("copySteps = %d", res.CopySteps)
	}
	if res.PerOp() != 1 {
		t.Fatalf("perOp = %v", res.PerOp())
	}
	if res.CopyFraction() != 0.5 {
		t.Fatalf("copyFraction = %v", res.CopyFraction())
	}
}

func TestReplayWarmupExcluded(t *testing.T) {
	p := core.NewSW(1)
	m := cost.NewConnection()
	res := Replay(p, m, sched.MustParse("rwrw"), 2)
	if res.Ops != 2 || res.Cost != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplayEmpty(t *testing.T) {
	res := Replay(core.NewST1(), cost.NewConnection(), nil, 0)
	if res.Ops != 0 || res.PerOp() != 0 || res.CopyFraction() != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestEstimateExpectedDeterministicInSeed(t *testing.T) {
	m := cost.NewConnection()
	opts := ExpectedOpts{Theta: 0.3, Ops: 5000, Trials: 4, Seed: 42}
	a := EstimateExpected(swFactory(3), m, opts)
	b := EstimateExpected(swFactory(3), m, opts)
	if a.Mean() != b.Mean() {
		t.Fatalf("same seed gave %v vs %v", a.Mean(), b.Mean())
	}
	opts.Seed = 43
	c := EstimateExpected(swFactory(3), m, opts)
	if a.Mean() == c.Mean() {
		t.Fatal("different seeds gave identical estimates")
	}
}

// TestEstimateExpectedMatchesTheoryConn is the simulator's core
// validation: measured per-request cost matches Theorem 1 within the
// confidence interval.
func TestEstimateExpectedMatchesTheoryConn(t *testing.T) {
	m := cost.NewConnection()
	for _, k := range []int{1, 3, 9} {
		for _, theta := range []float64{0.2, 0.5, 0.8} {
			sum := EstimateExpected(swFactory(k), m, ExpectedOpts{
				Theta: theta, Ops: 50000, Trials: 6, Seed: 7,
			})
			want := analytic.ExpSWConn(k, theta)
			if d := math.Abs(sum.Mean() - want); d > 3*sum.CI95()+0.003 {
				t.Fatalf("k=%d theta=%v: measured %v vs theory %v", k, theta, sum.Mean(), want)
			}
		}
	}
}

// TestEstimateExpectedMatchesTheoryMsg validates the message model,
// including the SW1 special case and the equation 11 deallocation term.
func TestEstimateExpectedMatchesTheoryMsg(t *testing.T) {
	const omega = 0.6
	m := cost.NewMessage(omega)
	for _, k := range []int{1, 3, 9} {
		for _, theta := range []float64{0.3, 0.5, 0.7} {
			sum := EstimateExpected(swFactory(k), m, ExpectedOpts{
				Theta: theta, Ops: 50000, Trials: 6, Seed: 11,
			})
			want := analytic.ExpSWMsg(k, theta, omega)
			if d := math.Abs(sum.Mean() - want); d > 3*sum.CI95()+0.003 {
				t.Fatalf("k=%d theta=%v: measured %v vs theory %v", k, theta, sum.Mean(), want)
			}
		}
	}
}

// TestEstimateExpectedStatics checks the trivial formulas for statics and
// the T-family oracle values.
func TestEstimateExpectedStatics(t *testing.T) {
	m := cost.NewMessage(0.4)
	theta := 0.35
	st1 := EstimateExpected(func() core.Policy { return core.NewST1() }, m,
		ExpectedOpts{Theta: theta, Ops: 30000, Trials: 4, Seed: 3})
	if d := math.Abs(st1.Mean() - analytic.ExpST1Msg(theta, 0.4)); d > 0.01 {
		t.Fatalf("ST1 measured %v", st1.Mean())
	}
	t1 := EstimateExpected(func() core.Policy { return core.NewT1(4) }, m,
		ExpectedOpts{Theta: theta, Ops: 30000, Trials: 4, Seed: 3})
	if d := math.Abs(t1.Mean() - analytic.ExactT1Expected(4, theta, m)); d > 0.01 {
		t.Fatalf("T1 measured %v vs oracle %v", t1.Mean(), analytic.ExactT1Expected(4, theta, m))
	}
	t2 := EstimateExpected(func() core.Policy { return core.NewT2(4) }, m,
		ExpectedOpts{Theta: theta, Ops: 30000, Trials: 4, Seed: 3})
	if d := math.Abs(t2.Mean() - analytic.ExactT2Expected(4, theta, m)); d > 0.01 {
		t.Fatalf("T2 measured %v vs oracle %v", t2.Mean(), analytic.ExactT2Expected(4, theta, m))
	}
}

// TestCopyFractionMatchesPiK: the empirical steady-state copy probability
// must match equation 4.
func TestCopyFractionMatchesPiK(t *testing.T) {
	m := cost.NewConnection()
	k, theta := 7, 0.4
	rngSeeds := []uint64{1, 2, 3}
	for _, seed := range rngSeeds {
		opts := ExpectedOpts{Theta: theta, Ops: 100000, Trials: 1, Seed: seed}
		opts.fill()
		// Use Replay directly to reach the copy fraction.
		p := core.NewSW(k)
		rngSched := bernoulli(seed, theta, opts.Warmup+opts.Ops)
		res := Replay(p, m, rngSched, opts.Warmup)
		if d := math.Abs(res.CopyFraction() - analytic.PiK(k, theta)); d > 0.01 {
			t.Fatalf("seed %d: copy fraction %v vs pi_k %v", seed, res.CopyFraction(), analytic.PiK(k, theta))
		}
	}
}

// TestEstimateAverageMatchesTheory validates the drifting-theta estimator
// against the AVG closed forms in both models.
func TestEstimateAverageMatchesTheory(t *testing.T) {
	conn := cost.NewConnection()
	opts := AverageOpts{Periods: 300, OpsPerPeriod: 400, Trials: 4, Seed: 5}
	for _, k := range []int{1, 5, 15} {
		got := EstimateAverage(swFactory(k), conn, opts)
		want := analytic.AvgSWConn(k)
		if d := math.Abs(got.Mean() - want); d > 0.01 {
			t.Fatalf("conn k=%d: measured %v vs theory %v", k, got.Mean(), want)
		}
	}
	msg := cost.NewMessage(0.8)
	for _, k := range []int{1, 7} {
		got := EstimateAverage(swFactory(k), msg, opts)
		want := analytic.AvgSWMsg(k, 0.8)
		if d := math.Abs(got.Mean() - want); d > 0.015 {
			t.Fatalf("msg k=%d: measured %v vs theory %v", k, got.Mean(), want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]string{
		"ST1": "ST1", "ST2": "ST2", "SW1": "SW1", "SW15": "SW15",
		"T1(3)": "T1(3)", "T13": "T1(3)", "T2(7)": "T2(7)", "T27": "T2(7)",
		"CacheInv": "CacheInv", "EWMA(0.25)": "EWMA(0.25)", "SWe4": "SWe4",
	}
	for in, want := range cases {
		f, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := f().Name(); got != want {
			t.Fatalf("%q parsed to %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "SW4", "SW0", "SW-3", "T10", "XX", "SW5x", "sw5",
		"SWe3", "SWe0", "EWMA(0)", "EWMA(2)", "cacheinv"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}

// TestParsePolicyWindowBound accepts every size up to core.MaxWindow
// under its parity rule; the rejection table below covers the far side.
func TestParsePolicyWindowBound(t *testing.T) {
	for _, name := range []string{"SW1", "SW63", "SWe64", "SW65", "SW127", "SWe128"} {
		f, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f().Name(); got != name {
			t.Fatalf("%s built %s", name, got)
		}
	}
}

// TestParsePolicyRejectionMessages pins each rejection family to its
// diagnostic, so the CLI's error text names the actual constraint rather
// than falling through to "unknown policy".
func TestParsePolicyRejectionMessages(t *testing.T) {
	cases := map[string]string{
		// Even (and non-positive) sliding windows.
		"SW2":   "must be odd and positive",
		"SW100": "must be odd and positive",
		"SW0":   "must be odd and positive",
		// Past the one window bound, whatever the parity rule.
		"SW129":  "outside [1, 128]",
		"SWe130": "outside [1, 128]",
		// The even-window ablation is the dual: it rejects odd sizes.
		"SWe7": "must be even and positive",
		"SWe0": "must be even and positive",
		// Trailing garbage must not silently truncate to a valid name.
		"SW5x":      "unknown policy",
		"SW5 ":      "unknown policy",
		"SWe4x":     "unknown policy",
		"T1(3)x":    "unknown policy",
		"EWMA(0.5x": "unknown policy",
		// EWMA alpha must lie in (0, 1].
		"EWMA(0)":    "must be in (0,1]",
		"EWMA(-0.5)": "must be in (0,1]",
		"EWMA(1.5)":  "must be in (0,1]",
		// Thresholds must be positive.
		"T1(0)":  "must be positive",
		"T1(-2)": "must be positive",
		"T2(0)":  "must be positive",
	}
	for in, want := range cases {
		_, err := ParsePolicy(in)
		if err == nil {
			t.Fatalf("%q: expected error containing %q", in, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: error %q does not mention %q", in, err, want)
		}
	}
	// Boundary acceptance: alpha exactly 1 is legal.
	f, err := ParsePolicy("EWMA(1)")
	if err != nil {
		t.Fatalf("EWMA(1): %v", err)
	}
	if got := f().Name(); got != "EWMA(1.00)" {
		t.Fatalf("EWMA(1) parsed to %q", got)
	}
}

// bernoulli is a tiny local copy to avoid importing workload in a way that
// hides what the test does.
func bernoulli(seed uint64, theta float64, n int) sched.Schedule {
	r := stats.NewRNG(seed)
	s := make(sched.Schedule, n)
	for i := range s {
		if r.Bernoulli(theta) {
			s[i] = sched.Write
		}
	}
	return s
}
