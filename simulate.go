package mobirep

import (
	"mobirep/internal/core"
	"mobirep/internal/offline"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// Simulation, workload generation and competitive analysis, re-exported
// from the implementation packages.

// Factory builds a fresh policy for one simulation trial.
type Factory = sim.Factory

// SimResult summarizes one schedule replay.
type SimResult = sim.Result

// ExpectedOpts configures EstimateExpected.
type ExpectedOpts = sim.ExpectedOpts

// AverageOpts configures EstimateAverage.
type AverageOpts = sim.AverageOpts

// Summary carries mean/CI statistics over simulation trials.
type Summary = stats.Summary

// Replay runs a schedule through a policy under a cost model, skipping the
// first warmup requests in the accounting.
func Replay(p Policy, m CostModel, s Schedule, warmup int) SimResult {
	return sim.Replay(p, m, s, warmup)
}

// EstimateExpected measures the steady-state expected cost per request at
// a fixed theta (i.i.d. Bernoulli requests).
func EstimateExpected(f Factory, m CostModel, opts ExpectedOpts) Summary {
	return sim.EstimateExpected(f, m, opts)
}

// EstimateAverage measures the average expected cost under the section 3
// period model: theta is redrawn uniformly per period.
func EstimateAverage(f Factory, m CostModel, opts AverageOpts) Summary {
	return sim.EstimateAverage(f, m, opts)
}

// ParsePolicy builds a policy factory from a name such as "SW9", "ST1" or
// "T1:4"; the grammar is core.ParseSpec's.
func ParsePolicy(name string) (Factory, error) {
	spec, err := core.ParsePolicy(name)
	if err != nil {
		return nil, err
	}
	return spec.New, nil
}

// RNG is a deterministic random number generator for workloads.
type RNG = stats.RNG

// NewRNG returns a seeded generator.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// BernoulliSchedule returns n requests, each independently a write with
// probability theta — the per-request view of the paper's Poisson model.
func BernoulliSchedule(rng *RNG, theta float64, n int) Schedule {
	return workload.Bernoulli(rng, theta, n)
}

// TimedOp is a request with its Poisson arrival time.
type TimedOp = workload.TimedOp

// PoissonSchedule samples the paper's workload directly: reads at rate
// lambdaR, writes at rate lambdaW, merged in time order.
func PoissonSchedule(rng *RNG, lambdaR, lambdaW float64, n int) []TimedOp {
	return workload.PoissonMerged(rng, lambdaR, lambdaW, n)
}

// DriftingSchedule samples the period model behind the average expected
// cost: each of the periods draws theta ~ U(0,1).
func DriftingSchedule(rng *RNG, periods, opsPerPeriod int) (Schedule, []float64) {
	return workload.Drifting(rng, periods, opsPerPeriod)
}

// OptimalCost returns the ideal offline algorithm's cost on a schedule —
// the denominator of the paper's competitive ratios.
func OptimalCost(s Schedule) float64 { return offline.Cost(s, offline.Ideal()) }

// OptimalTrace additionally returns one optimal allocation sequence:
// states[i] says whether the MC holds a copy after request i.
func OptimalTrace(s Schedule) (float64, []bool) { return offline.Trace(s, offline.Ideal()) }

// RatioResult reports a competitive-ratio measurement.
type RatioResult = workload.RatioResult

// MeasureRatio replays a schedule through a policy and compares with the
// ideal offline cost.
func MeasureRatio(p Policy, m CostModel, s Schedule) RatioResult {
	return workload.MeasureRatio(p, m, s)
}

// SWkAdversary returns the schedule family achieving SWk's tight
// competitive ratio (Theorems 4 and 12).
func SWkAdversary(k, cycles int) Schedule { return workload.SWkAdversary(k, cycles) }

// SW1Adversary returns the family achieving SW1's tight ratio 1+2omega
// (Theorem 11).
func SW1Adversary(cycles int) Schedule { return workload.SW1Adversary(cycles) }

// BurstyConfig parametrizes the two-regime Markov-modulated workload.
type BurstyConfig = workload.BurstyConfig

// BurstySchedule samples n requests whose write probability jumps between
// two regimes — the bursty workload the extension experiments study. The
// second result gives the regime in force at each request.
func BurstySchedule(rng *RNG, cfg BurstyConfig, n int) (Schedule, []uint8) {
	return workload.Bursty(rng, cfg, n)
}

// Comparison is a hindsight ranking of policies on one schedule.
type Comparison = sim.Comparison

// Compare replays a schedule through every candidate policy and ranks
// them by total cost, anchored against the ideal offline optimum.
func Compare(candidates []Factory, m CostModel, s Schedule) Comparison {
	return sim.Compare(candidates, m, s)
}

// BestWindow returns the window size among ks that would have cost least
// on the schedule — the hindsight tuning oracle.
func BestWindow(ks []int, m CostModel, s Schedule) (int, float64) {
	return sim.BestWindow(ks, m, s)
}
