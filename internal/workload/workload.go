// Package workload generates the request schedules used by the
// experiments: the paper's Poisson read/write model (in both its timed
// form and the equivalent per-request Bernoulli form), the period-drifting
// theta model behind the average-expected-cost measure, and the
// adversarial schedule families that achieve the tight competitive ratios
// of Theorems 4, 11 and 12.
package workload

import (
	"fmt"
	"sort"

	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// Bernoulli returns a schedule of n requests where each request is
// independently a write with probability theta. Because the paper's
// Poisson processes are memoryless, the sequence of request kinds under
// the timed model is exactly this Bernoulli process with
// theta = lambda_w / (lambda_w + lambda_r); TestPoissonEquivalence
// verifies the equivalence empirically.
func Bernoulli(rng *stats.RNG, theta float64, n int) sched.Schedule {
	s := make(sched.Schedule, n)
	FillBernoulli(rng, theta, s)
	return s
}

// FillBernoulli overwrites every element of s with an independent
// Bernoulli(theta) request, consuming rng exactly like Bernoulli. It
// exists so callers can reuse pooled schedule buffers (sim.GetSchedule)
// instead of allocating a fresh slice per trial.
func FillBernoulli(rng *stats.RNG, theta float64, s sched.Schedule) {
	if theta < 0 || theta > 1 {
		panic(fmt.Sprintf("workload: theta %v outside [0,1]", theta))
	}
	// The draw is a coin flip, so the op is selected, not branched to: an
	// if/else store per request mispredicts about as often as theta allows.
	for i := range s {
		op := sched.Read
		if rng.Bernoulli(theta) {
			op = sched.Write
		}
		s[i] = op
	}
}

// TimedOp is a relevant request with its arrival time, produced by the
// Poisson-process generator.
type TimedOp struct {
	// At is the arrival time in model time units.
	At float64
	// Op is the request kind.
	Op sched.Op
}

// PoissonMerged samples the paper's workload model directly: reads arrive
// as a Poisson process with rate lambdaR (at the mobile computer) and
// writes independently with rate lambdaW (at the stationary computer).
// It returns the first n arrivals of the merged process in time order.
func PoissonMerged(rng *stats.RNG, lambdaR, lambdaW float64, n int) []TimedOp {
	if lambdaR < 0 || lambdaW < 0 || lambdaR+lambdaW == 0 {
		panic("workload: rates must be non-negative with a positive sum")
	}
	out := make([]TimedOp, 0, n)
	tr, tw := 0.0, 0.0
	nextRead, nextWrite := 0.0, 0.0
	advanceRead := func() {
		if lambdaR == 0 {
			nextRead = -1
			return
		}
		tr += rng.Exp(lambdaR)
		nextRead = tr
	}
	advanceWrite := func() {
		if lambdaW == 0 {
			nextWrite = -1
			return
		}
		tw += rng.Exp(lambdaW)
		nextWrite = tw
	}
	advanceRead()
	advanceWrite()
	for len(out) < n {
		if nextWrite < 0 || (nextRead >= 0 && nextRead <= nextWrite) {
			out = append(out, TimedOp{At: nextRead, Op: sched.Read})
			advanceRead()
		} else {
			out = append(out, TimedOp{At: nextWrite, Op: sched.Write})
			advanceWrite()
		}
	}
	return out
}

// StripTimes projects a timed trace onto the request-kind sequence that
// the allocation algorithms and cost models consume.
func StripTimes(ops []TimedOp) sched.Schedule {
	s := make(sched.Schedule, len(ops))
	for i, op := range ops {
		s[i] = op.Op
	}
	return s
}

// SortedByTime reports whether the trace is in non-decreasing time order;
// trace tooling uses it to validate loaded files.
func SortedByTime(ops []TimedOp) bool {
	return sort.SliceIsSorted(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}

// Drifting samples the period model of section 3 that defines the average
// expected cost: time is split into periods, each period draws its own
// theta uniformly from [0, 1], and requests within the period are
// Bernoulli(theta). It returns the concatenated schedule and the theta
// drawn for each period.
func Drifting(rng *stats.RNG, periods, opsPerPeriod int) (sched.Schedule, []float64) {
	if periods <= 0 || opsPerPeriod <= 0 {
		panic("workload: periods and opsPerPeriod must be positive")
	}
	s := make(sched.Schedule, periods*opsPerPeriod)
	thetas := make([]float64, periods)
	for p := range thetas {
		theta := rng.Float64()
		thetas[p] = theta
		FillBernoulli(rng, theta, s[p*opsPerPeriod:(p+1)*opsPerPeriod])
	}
	return s, thetas
}
