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

// tally prices step codes: what each code costs under the model, how often
// each occurred, and the running total. Counts are kept in two sets, for
// the even and the odd positions: in a run of equal codes (a static
// policy, a skewed theta) each increment of a single counter would wait
// for the previous one's store, which is longer than the float add the
// loop is otherwise bound by.
type tally struct {
	price [core.NumCodes]float64
	count [2][core.NumCodes]int
	total float64
}

func newTally(m cost.Model) tally {
	var t tally
	for c := range t.price {
		t.price[c] = m.StepCost(core.Code(c).Step())
	}
	return t
}

// add prices codes in order. The step-by-step ledger adds every step's
// cost, zeros included, in this order, so the totals agree bit for bit.
func (t *tally) add(codes []core.Code) {
	const mask = core.NumCodes - 1
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
	count := t.count[0]
	for c, n := range t.count[1] {
		count[c] += n
	}
	res := Result{Cost: t.total, Ledger: cost.Tally(t.total, &count)}
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
	t := newTally(m)
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
