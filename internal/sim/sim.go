// Package sim is the Monte-Carlo engine of the reproduction: it replays
// request schedules through allocation policies under a cost model and
// estimates the paper's three measures — expected cost per request at a
// fixed theta, average expected cost under the drifting-theta period
// model, and competitive ratios on given schedules.
//
// Policies are stateful, so every concurrent trial owns a fresh instance
// built from a Factory; results are deterministic functions of the seed.
package sim

import (
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// Factory builds a fresh policy instance for one trial.
type Factory func() core.Policy

// Result summarizes one schedule replay.
type Result struct {
	// Ops is the number of priced requests (after warmup).
	Ops int
	// Cost is the total communication cost of the priced requests.
	Cost float64
	// Ledger breaks the cost down by message kind.
	Ledger cost.Ledger
	// Allocations and Deallocations count copy transitions among the
	// priced requests.
	Allocations   int
	Deallocations int
	// CopySteps counts priced requests during which the MC held a copy
	// (before the request), the empirical pi_k.
	CopySteps int
}

// PerOp returns the average cost per priced request.
func (r Result) PerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return r.Cost / float64(r.Ops)
}

// CopyFraction returns the fraction of priced requests that began with a
// copy at the MC.
func (r Result) CopyFraction() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.CopySteps) / float64(r.Ops)
}

// Replay runs the schedule through p under m, ignoring the first warmup
// requests when accounting (they are still applied to the policy, so the
// window reaches steady state). It does not Reset the policy first. The
// model is asked for the price of each distinct step once, not per request.
func Replay(p core.Policy, m cost.Model, s sched.Schedule, warmup int) Result {
	return replay(p, m, s, nil, len(s), warmup)
}

// ExpectedOpts configures EstimateExpected.
type ExpectedOpts struct {
	// Theta is the write probability.
	Theta float64
	// Ops is the number of priced requests per trial.
	Ops int
	// Warmup is the number of unpriced leading requests per trial; it
	// defaults to 1000 when zero, enough to wash out any initial window.
	Warmup int
	// Trials is the number of independent replays; defaults to 8.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
}

func (o *ExpectedOpts) fill() {
	if o.Warmup == 0 {
		o.Warmup = 1000
	}
	if o.Trials == 0 {
		o.Trials = 8
	}
	if o.Ops == 0 {
		o.Ops = 100000
	}
}

// EstimateExpected estimates EXP(theta): the steady-state cost per request
// under i.i.d. Bernoulli(theta) requests. The returned summary is over
// per-trial means, so its CI95 bounds the estimate of the mean.
func EstimateExpected(f Factory, m cost.Model, opts ExpectedOpts) stats.Summary {
	opts.fill()
	results := parallelTrials(opts.Trials, func(trial int) float64 {
		rng := stats.NewRNG(opts.Seed + uint64(trial)*0x9e3779b9)
		kn, _ := NewKernel(f(), m)
		return kn.ReplayBernoulli(rng, opts.Theta, opts.Warmup+opts.Ops, opts.Warmup).PerOp()
	})
	var sum stats.Summary
	for _, v := range results {
		sum.Add(v)
	}
	return sum
}

// AverageOpts configures EstimateAverage.
type AverageOpts struct {
	// Periods is the number of drifting-theta periods per trial; defaults
	// to 400.
	Periods int
	// OpsPerPeriod is the requests per period; defaults to 500. Longer
	// periods reduce the bias from window state carried across period
	// boundaries.
	OpsPerPeriod int
	// Trials defaults to 8.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
}

func (o *AverageOpts) fill() {
	if o.Periods == 0 {
		o.Periods = 400
	}
	if o.OpsPerPeriod == 0 {
		o.OpsPerPeriod = 500
	}
	if o.Trials == 0 {
		o.Trials = 8
	}
}

// EstimateAverage estimates AVG: the cost per request when theta is
// redrawn uniformly per period, the section 3 interpretation of the
// average expected cost integral.
func EstimateAverage(f Factory, m cost.Model, opts AverageOpts) stats.Summary {
	opts.fill()
	results := parallelTrials(opts.Trials, func(trial int) float64 {
		rng := stats.NewRNG(opts.Seed + uint64(trial)*0x9e3779b9)
		kn, _ := NewKernel(f(), m)
		return kn.ReplayDrifting(rng, opts.Periods, opts.OpsPerPeriod).PerOp()
	})
	var sum stats.Summary
	for _, v := range results {
		sum.Add(v)
	}
	return sum
}

// parallelTrials runs fn for each trial index on the shared worker pool
// and returns the values in trial order, keeping runs reproducible
// regardless of scheduling.
func parallelTrials(trials int, fn func(trial int) float64) []float64 {
	out := make([]float64, trials)
	Fan(trials, func(i int) { out[i] = fn(i) })
	return out
}
