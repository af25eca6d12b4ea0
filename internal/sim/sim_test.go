package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

func swFactory(k int) Factory { return func() core.Policy { return core.NewSW(k) } }

// referenceReplay is the step-by-step replay the block engine replaced —
// Apply and Ledger.Observe per request, through both interfaces — kept as
// the engine's oracle. It shares nothing with the engine: no codes, no
// table, no block forms.
func referenceReplay(p core.Policy, m cost.Model, s sched.Schedule, warmup int) Result {
	var res Result
	for i, op := range s {
		st := p.Apply(op)
		if i < warmup {
			continue
		}
		res.Ops++
		res.Ledger.Observe(m, st)
		if st.HadCopy {
			res.CopySteps++
		}
		if st.Allocated() {
			res.Allocations++
		}
		if st.Deallocated() {
			res.Deallocations++
		}
	}
	res.Cost = res.Ledger.Total
	return res
}

// oddModel is a cost model that is neither of the paper's: every one of
// the sixteen steps has its own price, none of them a dyadic fraction, so
// a step priced as another, or added out of order, moves the total's bits.
type oddModel struct{}

func (oddModel) Name() string { return "odd" }
func (oddModel) StepCost(st core.Step) float64 {
	return 0.1 + 0.7*float64(st.Code())/3
}

// refPolicies are the policies the engine is held to the reference on:
// every block form at sizes on both sides of the window register's word
// boundary, and policies that only have Apply. k is the window size or
// threshold, the length below which a block is shorter than the policy's
// memory.
var refPolicies = []struct {
	k  int
	mk Factory
}{
	{1, func() core.Policy { return core.NewST1() }},
	{1, func() core.Policy { return core.NewST2() }},
	{1, swFactory(1)},
	{3, swFactory(3)},
	{9, swFactory(9)},
	{95, swFactory(95)},
	{127, swFactory(127)},
	{5, func() core.Policy { return core.NewSWInitial(5, sched.Read) }},
	{4, func() core.Policy { return core.NewEvenSW(4) }},
	{1, func() core.Policy { return core.NewT1(1) }},
	{4, func() core.Policy { return core.NewT1(4) }},
	{1, func() core.Policy { return core.NewT2(1) }},
	{4, func() core.Policy { return core.NewT2(4) }},
	{1, func() core.Policy { return core.NewCacheInvalidate() }},
	{1, func() core.Policy { return core.NewEWMA(0.3) }},
	{15, func() core.Policy { return core.NewAdaptiveSW(3, 15) }},
}

// refModels put the engine's two price loops against the reference: the
// connection model and the message model at ω = 0, 1 and 0.5 (fractional
// dyadic prices, the benchmark's) have exact tables and are priced from
// their counts; ω = 0.37 and oddModel are summed in request order.
var refModels = []cost.Model{
	cost.NewConnection(), cost.NewMessage(0), cost.NewMessage(0.37), cost.NewMessage(1), oddModel{},
	cost.NewMessage(0.5),
}

// TestExactSumBoundary pins which tables are priced from their counts: a
// table whose prices are multiples of 2^-q, the largest max, only while
// n·max·2^q < 2^53, and never one with a NaN, an infinite or a negative
// price, however short the replay.
func TestExactSumBoundary(t *testing.T) {
	const limit = 1<<53 - 1
	for _, tc := range []struct {
		m    cost.Model
		last int // the largest n priced from counts
	}{
		{cost.NewConnection(), limit},        // max 1, q 0
		{cost.NewMessage(0), limit},          // max 1, q 0
		{cost.NewMessage(1), limit / 2},      // max 2, q 0
		{cost.NewMessage(0.5), limit / 3},    // max 1.5, q 1
		{cost.NewMessage(0.25), limit / 5},   // max 1.25, q 2
		{cost.NewMessage(0.375), limit / 11}, // max 1.375, q 3
		{cost.NewMessage(0.37), 0},           // no short dyadic fraction: no n
		{cost.NewMessage(0.45), 0},           // likewise
		{oddModel{}, 0},
	} {
		tl := newTally(tc.m, 0)
		if got := exactSum(&tl.price, tc.last); got != (tc.last > 0) {
			t.Errorf("%s, n = %d: exact %v, want %v", tc.m.Name(), tc.last, got, tc.last > 0)
		}
		if exactSum(&tl.price, tc.last+1) {
			t.Errorf("%s, n = %d: exact, want the in-order sum", tc.m.Name(), tc.last+1)
		}
	}
	var zero [core.NumCodes]float64
	if !exactSum(&zero, math.MaxInt) {
		t.Error("an all-zero table is not exact")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5} {
		table := zero
		table[core.NumCodes-1] = bad
		if exactSum(&table, 1) {
			t.Errorf("a table holding %v is exact", bad)
		}
	}
}

// refLongest is three blocks and a bit: every shorter length is a prefix.
const refLongest = 3*blockOps + 7

// refSchedules returns the schedule families for a policy of memory k,
// each refLongest requests long.
func refSchedules(k int) map[string]sched.Schedule {
	out := map[string]sched.Schedule{}
	for _, theta := range []float64{0, 0.2, 0.5, 0.8, 1} {
		out[fmt.Sprintf("bernoulli(%v)", theta)] = workload.Bernoulli(stats.NewRNG(uint64(k)), theta, refLongest)
	}
	out["drifting"], _ = workload.Drifting(stats.NewRNG(uint64(k)+1), 31, 100)
	out["bursty"], _ = workload.Bursty(stats.NewRNG(uint64(k)+2),
		workload.BurstyConfig{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 1.0 / 64}, refLongest)
	const cycles = refLongest/2 + 1 // the shortest cycle is two requests
	out["adversary(SWk)"] = workload.SWkAdversary(k|1, cycles)
	out["adversary(SW1)"] = workload.SW1Adversary(cycles)
	out["adversary(T1)"] = workload.T1Adversary(k, cycles)
	out["adversary(T2)"] = workload.T2Adversary(k, cycles)
	for name, s := range out {
		out[name] = s[:refLongest]
	}
	return out
}

// checkAgainstReference replays s twice through a fresh policy with the
// engine and with the reference, without a Reset in between (Replay does
// not Reset), and requires equal results — Ledger.Total and Cost to the
// bit — and equal policy state after each.
func checkAgainstReference(t *testing.T, what string, mk Factory, m cost.Model, s sched.Schedule, warmup int) {
	t.Helper()
	p, ref := mk(), mk()
	for round := 1; round <= 2; round++ {
		got, want := Replay(p, m, s, warmup), referenceReplay(ref, m, s, warmup)
		if got != want || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
			math.Float64bits(got.Ledger.Total) != math.Float64bits(want.Ledger.Total) {
			t.Fatalf("%s under %s on %s, %d requests, warmup %d, replay %d:\nengine    %+v\nreference %+v",
				ref.Name(), m.Name(), what, len(s), warmup, round, got, want)
		}
		if !reflect.DeepEqual(p, ref) {
			t.Fatalf("%s under %s on %s, %d requests, warmup %d, replay %d: policy left as %+v, reference as %+v",
				ref.Name(), m.Name(), what, len(s), warmup, round, p, ref)
		}
	}
}

// TestReplayMatchesReference is the guard the engine ships under. Lengths
// sit on block edges and on both sides of the policy's memory, warmups on
// both sides of a block and of the schedule.
func TestReplayMatchesReference(t *testing.T) {
	for _, pol := range refPolicies {
		k := pol.k
		for name, full := range refSchedules(k) {
			for _, n := range []int{0, 1, k - 1, k, k + 1, blockOps - 1, blockOps, blockOps + 1, refLongest} {
				s := full[:n]
				for _, warmup := range []int{0, 1, k, blockOps, n, n + 5} {
					for _, m := range refModels {
						checkAgainstReference(t, name, pol.mk, m, s, warmup)
					}
				}
			}
		}
	}
}

// FuzzReplayMatchesReference lets the fuzzer pick the policy, the model,
// the warmup and the schedule (eight requests a byte, so a few hundred
// bytes cross block edges).
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(3), []byte("mobile computers replicate"))
	f.Add(uint8(10), uint8(4), uint16(0), []byte{0x00, 0xff, 0x0f, 0xf0, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, policy, model uint8, warmup uint16, raw []byte) {
		s := make(sched.Schedule, 0, 8*len(raw))
		for _, b := range raw {
			for bit := 0; bit < 8; bit++ {
				s = append(s, sched.Op(b>>bit&1))
			}
		}
		pol := refPolicies[int(policy)%len(refPolicies)]
		checkAgainstReference(t, "fuzz input", pol.mk, refModels[int(model)%len(refModels)], s, int(warmup))
	})
}

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
