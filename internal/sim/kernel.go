package sim

// The replay engine. Every entry point — Replay on a materialized
// schedule, ReplayStream, a Kernel drawing from an RNG — is the same three
// steps per block of blockOps requests: take the block's ops (a slice of
// the schedule, or a stack block filled in the generators' RNG order), let
// the policy turn them into 4-bit step codes (core's ApplyBlock where the
// policy has one, Apply per request otherwise), and price the codes through
// a table. Nothing is dispatched per request except on that fallback, no
// branch depends on a request's kind, and nothing is allocated.
//
// TestReplayMatchesReference holds the engine to the step-by-step loop
// (Apply, Ledger.Observe) field for field, Ledger.Total bit for bit.

import (
	"math"
	"math/bits"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// blockOps is the block length: the ops and the codes of one block are a
// KiB of stack each and stay in L1 between the three steps.
const blockOps = 1024

// applyBlock writes to out the codes of p's steps on ops. The switch is on
// the concrete type because a call through an interface would make out —
// the caller's stack block — escape: one malloc per replay.
func applyBlock(p core.Policy, ops sched.Schedule, out []core.Code) {
	switch q := p.(type) {
	case *core.SW:
		q.ApplyBlock(ops, out)
	case *core.ST1:
		q.ApplyBlock(ops, out)
	case *core.ST2:
		q.ApplyBlock(ops, out)
	case *core.T1:
		q.ApplyBlock(ops, out)
	case *core.T2:
		q.ApplyBlock(ops, out)
	default:
		for i, op := range ops {
			out[i] = p.Apply(op).Code()
		}
	}
}

// kindOf is the series a replay of p is counted under (metrics.go): one
// per case of applyBlock's switch.
func kindOf(p core.Policy) replayKind {
	switch p.(type) {
	case *core.SW:
		return kindSW
	case *core.ST1:
		return kindST1
	case *core.ST2:
		return kindST2
	case *core.T1:
		return kindT1
	case *core.T2:
		return kindT2
	}
	return kindGeneric
}

// tally prices step codes: what each code costs under the model and how
// often each occurred. How it sums depends on the table and the number of
// priced requests, decided once in newTally. When no sum can round
// (exactSum), add only counts and result prices the counts, so no float add
// sits in the loop. Otherwise add keeps the running total in request order,
// as the step-by-step ledger does. Either way the total is the ledger's to
// the bit.
//
// Counts are kept in several sets taken in turn: in a run of equal codes (a
// static policy, a skewed theta) each increment of a single counter would
// wait for the previous one's store.
type tally struct {
	price [core.NumCodes]float64
	count [4][core.NumCodes]int
	exact bool
	total float64 // the in-order running total; stays 0 when exact
}

// newTally builds the price table of m for a replay that prices n requests.
func newTally(m cost.Model, n int) tally {
	var t tally
	for c := range t.price {
		t.price[c] = m.StepCost(core.Code(c).Step())
	}
	t.exact = exactSum(&t.price, n)
	return t
}

// exactSum reports whether every sum of n prices drawn from the table, in
// any order, is exact in float64. It is when every price is a non-negative
// multiple of 2^-q and n·max·2^q < 2^53: every partial sum is then a
// multiple of 2^-q below 2^53·2^-q, which float64 holds exactly, so the sum
// in request order and the sum of count·price over codes are the same
// number. Prices that are integers or halves (the connection model, the
// message model at ω = 0, 0.5, 1) pass for any realistic n; ω = 0.37 does
// not, nor does a NaN, an infinity or a negative price.
func exactSum(price *[core.NumCodes]float64, n int) bool {
	q, top := 0, 0.0
	for _, p := range price {
		if !(p >= 0) || math.IsInf(p, 1) {
			return false
		}
		if p == 0 {
			continue
		}
		frac, exp := math.Frexp(p)
		mant := uint64(frac * (1 << 53)) // p = mant·2^(exp-53)
		q = max(q, 53-exp-bits.TrailingZeros64(mant))
		top = max(top, p)
	}
	if top == 0 {
		return true
	}
	const limit = 1 << 53
	scaled := math.Ldexp(top, q) // an integer; +Inf when q is huge
	return scaled < limit && uint64(n) <= (limit-1)/uint64(scaled)
}

// add prices codes.
func (t *tally) add(codes []core.Code) {
	const mask = core.NumCodes - 1
	if t.exact {
		for ; len(codes) >= 4; codes = codes[4:] {
			t.count[0][codes[0]&mask]++
			t.count[1][codes[1]&mask]++
			t.count[2][codes[2]&mask]++
			t.count[3][codes[3]&mask]++
		}
		for _, c := range codes {
			t.count[0][c&mask]++
		}
		return
	}
	// The step-by-step ledger adds every step's cost, zeros included, in
	// this order, so the totals agree bit for bit.
	total := t.total
	for ; len(codes) >= 2; codes = codes[2:] {
		a, b := codes[0]&mask, codes[1]&mask
		total += t.price[a]
		t.count[0][a]++
		total += t.price[b]
		t.count[1][b]++
	}
	for _, c := range codes {
		total += t.price[c&mask]
		t.count[0][c&mask]++
	}
	t.total = total
}

// result folds the counts into a Result.
func (t *tally) result() Result {
	var count [core.NumCodes]int
	for _, set := range &t.count {
		for c, n := range set {
			count[c] += n
		}
	}
	total := t.total
	if t.exact {
		// Every product and partial sum here is exact (exactSum), so this
		// is the number the in-order sum would have reached.
		for c, n := range count {
			total += float64(n) * t.price[c]
		}
	}
	res := Result{Cost: total, Ledger: cost.Tally(total, &count)}
	for c, n := range count {
		st := core.Code(c).Step()
		res.Ops += n
		if st.HadCopy {
			res.CopySteps += n
		}
		if st.Allocated() {
			res.Allocations += n
		}
		if st.Deallocated() {
			res.Deallocations += n
		}
	}
	return res
}

// replay runs n requests through p under m and prices all but the first
// warmup: the requests are s when src is nil and drawn from src otherwise.
func replay(p core.Policy, m cost.Model, s sched.Schedule, src OpStream, n, warmup int) Result {
	start := time.Now()
	t := newTally(m, n-min(max(warmup, 0), n))
	var drawn [blockOps]sched.Op
	var codes [blockOps]core.Code
	for lo := 0; lo < n; lo += blockOps {
		hi := min(lo+blockOps, n)
		var ops sched.Schedule
		if src == nil {
			ops = s[lo:hi]
		} else {
			ops = drawn[:hi-lo]
			fillBlock(src, ops)
		}
		out := codes[:len(ops)]
		applyBlock(p, ops, out)
		// The warmup requests went through the policy; they are not priced.
		skip := min(max(warmup-lo, 0), len(out))
		t.add(out[skip:])
	}
	res := t.result()
	recordReplay(kindOf(p), res.Ops, time.Since(start))
	return res
}

// Kernel binds the engine to one policy, one cost model and a source of
// drawn requests, for the estimators' trials: it replays schedules that
// are never materialized. It owns the policy, so it is not safe for
// concurrent use; the estimators build one per trial. Replay methods Reset
// the policy first, so a Kernel is reusable across trials.
type Kernel struct {
	p core.Policy
	m cost.Model
	// The generators are fields so that handing the engine one as an
	// OpStream allocates nothing.
	bernoulli BernoulliStream
	drifting  DriftingStream
}

// NewKernel returns a kernel replaying policy p under m. Every policy and
// every model has one; ok is always true and remains for the callers that
// predate the one engine.
func NewKernel(p core.Policy, m cost.Model) (kn *Kernel, ok bool) {
	return &Kernel{p: p, m: m}, true
}

// Reset returns the policy to its initial state.
func (kn *Kernel) Reset() { kn.p.Reset() }

// ReplayBernoulli replays n i.i.d. Bernoulli(theta) requests drawn from
// rng, pricing all but the first warmup. It consumes rng exactly like
// workload.Bernoulli, so it reproduces Replay on that schedule bit for
// bit. The kernel is Reset first.
func (kn *Kernel) ReplayBernoulli(rng *stats.RNG, theta float64, n, warmup int) Result {
	kn.Reset()
	kn.bernoulli = BernoulliStream{rng: rng, theta: theta}
	return replay(kn.p, kn.m, nil, &kn.bernoulli, n, warmup)
}

// ReplayDrifting replays the section 3 period model — theta redrawn
// uniformly per period — consuming rng exactly like workload.Drifting.
// The kernel is Reset first.
func (kn *Kernel) ReplayDrifting(rng *stats.RNG, periods, opsPerPeriod int) Result {
	kn.Reset()
	kn.drifting = DriftingStream{rng: rng, opsPerPeriod: opsPerPeriod}
	return replay(kn.p, kn.m, nil, &kn.drifting, periods*opsPerPeriod, 0)
}
