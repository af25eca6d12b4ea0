package sim

// The replay engine. Every entry point — Replay on a materialized
// schedule, ReplayStream, a Kernel drawing from an RNG — is the same three
// steps per block of blockOps requests: take the block's ops (a slice of
// the schedule, or a stack block filled in the generators' RNG order), let
// the policy decide its steps, and price them through a table. A policy
// with a block form (core.BlockPolicy) returns them as copy bits, 64 to a
// word, and any other as 4-bit step codes from Apply per request. Nothing
// is dispatched per request except on that fallback, no branch depends on
// a request's kind, and nothing is allocated.
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

// block is one block's requests and the steps a policy took on them, in
// one of two forms: bit form (core.BlockPolicy) when bits is set, codes
// otherwise. A replay keeps it on its stack.
type block struct {
	ops   sched.Schedule
	bits  bool
	had   bool // the copy bit before ops[0]
	sup   bool // core.BlockPolicy.SuppressesWrites
	has   [blockOps / 64]uint64
	codes [blockOps]core.Code
	drawn [blockOps]sched.Op // ops, when they are drawn from a stream
}

// applyBlock runs p over b.ops and leaves its steps in b. The switch is on
// the concrete type because a call through an interface would make the
// caller's stack block escape: one malloc per replay.
func applyBlock(p core.Policy, b *block) {
	b.bits = true
	switch q := p.(type) {
	case *core.SW:
		b.had, b.sup = q.HasCopy(), q.SuppressesWrites()
		q.ApplyBlock(b.ops, b.has[:])
	case *core.ST1:
		b.had, b.sup = q.HasCopy(), q.SuppressesWrites()
		q.ApplyBlock(b.ops, b.has[:])
	case *core.ST2:
		b.had, b.sup = q.HasCopy(), q.SuppressesWrites()
		q.ApplyBlock(b.ops, b.has[:])
	case *core.T1:
		b.had, b.sup = q.HasCopy(), q.SuppressesWrites()
		q.ApplyBlock(b.ops, b.has[:])
	case *core.T2:
		b.had, b.sup = q.HasCopy(), q.SuppressesWrites()
		q.ApplyBlock(b.ops, b.has[:])
	default:
		b.bits = false
		for i, op := range b.ops {
			b.codes[i] = p.Apply(op).Code()
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

// tally prices steps: what each code costs under the model and how often
// each occurred. How it sums depends on the table and the number of priced
// requests, decided once in newTally. When no sum can round (exactSum), add
// only counts — steps in bit form by popcount, codes one by one — and
// result prices the counts, so no float add sits in the loop. Otherwise add
// keeps the running total in request order, as the step-by-step ledger
// does, expanding steps in bit form to codes first. Either way the total is
// the ledger's to the bit.
//
// Codes are counted in several sets taken in turn: in a run of equal codes
// (a skewed theta) each increment of a single counter would wait for the
// previous one's store.
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

// add prices the steps of b from request skip on.
func (t *tally) add(b *block, skip int) {
	switch {
	case !b.bits:
		t.addCodes(b.codes[skip:len(b.ops)])
	case t.exact:
		t.countBits(b, skip)
	default:
		b.expand()
		t.addCodes(b.codes[skip:len(b.ops)])
	}
}

// expand writes b's steps, in bit form, to its codes in request order.
func (b *block) expand() {
	var had, sup uint64
	if b.had {
		had = 1
	}
	if b.sup {
		sup = 1
	}
	for i, op := range b.ops {
		o := uint64(op & 1)
		has := b.has[i/64] >> (i & 63) & 1
		b.codes[i] = core.Code(o | had<<1 | has<<2 | (sup&o&had)<<3)
		had = has
	}
}

// countBits counts the steps of b, in bit form, from request skip on, 64
// at a time from the op words and the copy-bit words. For each kind of
// request it counts four sets — all of them, those that found a copy,
// those that left one, and those that did both — one popcount each, and
// folds them into the eight (op, had, has) codes by inclusion–exclusion.
func (t *tally) countBits(b *block, skip int) {
	var opw [blockOps / 64]uint64
	core.PackOps(opw[:], b.ops)
	n, first := len(b.ops), skip/64
	last := (n+63)/64 - 1
	// The copy bit before request 64·first, shifted in as bit 0 of had.
	var carry uint64
	if first > 0 {
		carry = b.has[first-1] >> 63
	} else if b.had {
		carry = 1
	}
	var r, rHad, rHas, rBoth, w, wHad, wHas, wBoth int
	for i := first; i <= last; i++ {
		has := b.has[i]
		had := has<<1 | carry
		carry = has >> 63
		priced := ^uint64(0)
		if i == first {
			priced <<= skip & 63
		}
		if i == last && n%64 != 0 {
			priced &= 1<<(n&63) - 1
		}
		both := had & has
		rd, wr := ^opw[i]&priced, opw[i]&priced
		r += bits.OnesCount64(rd)
		rHad += bits.OnesCount64(rd & had)
		rHas += bits.OnesCount64(rd & has)
		rBoth += bits.OnesCount64(rd & both)
		w += bits.OnesCount64(wr)
		wHad += bits.OnesCount64(wr & had)
		wHas += bits.OnesCount64(wr & has)
		wBoth += bits.OnesCount64(wr & both)
	}
	t.fold(0, r, rHad, rHas, rBoth)
	// A suppressed step is a write that found a copy.
	var sup core.Code
	if b.sup {
		sup = 8
	}
	t.fold(1|sup, w, wHad, wHas, wBoth)
}

// fold adds countBits' four sets for one kind of request to the counts of
// its codes; c is the op bit, with the suppressed bit when a write that
// finds a copy is suppressed.
func (t *tally) fold(c core.Code, all, had, has, both int) {
	const codeHad, codeHas = 2, 4
	t.count[0][c|codeHad|codeHas] += both
	t.count[0][c|codeHad] += had - both
	t.count[0][(c&1)|codeHas] += has - both
	t.count[0][c&1] += all - had - has + both
}

// addCodes prices codes.
func (t *tally) addCodes(codes []core.Code) {
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
	var b block
	for lo := 0; lo < n; lo += blockOps {
		hi := min(lo+blockOps, n)
		if src == nil {
			b.ops = s[lo:hi]
		} else {
			b.ops = b.drawn[:hi-lo]
			fillBlock(src, b.ops)
		}
		applyBlock(p, &b)
		// The warmup requests went through the policy; they are not priced.
		t.add(&b, min(max(warmup-lo, 0), len(b.ops)))
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
