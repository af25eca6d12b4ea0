package sim

// Streaming replay: the estimators' hot path draws its requests a block
// at a time instead of materializing a ~200k-element sched.Schedule per
// trial. The streams below consume the RNG in exactly the order the
// materializing generators in internal/workload do, so a streamed trial
// sees bit-for-bit the same schedule — and therefore produces bit-for-bit
// the same tables — as a materialized one at the same seed
// (TestStreamsMatchWorkload pins this).

import (
	"sync"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// OpStream produces schedule operations one at a time.
type OpStream interface {
	// Next returns the next request of the stream.
	Next() sched.Op
}

// BernoulliStream draws i.i.d. requests that are writes with probability
// theta — the streaming form of workload.Bernoulli.
type BernoulliStream struct {
	rng   *stats.RNG
	theta float64
}

// NewBernoulliStream returns a stream equivalent to
// workload.Bernoulli(rng, theta, ·).
func NewBernoulliStream(rng *stats.RNG, theta float64) *BernoulliStream {
	return &BernoulliStream{rng: rng, theta: theta}
}

// Next implements OpStream.
func (s *BernoulliStream) Next() sched.Op {
	if s.rng.Bernoulli(s.theta) {
		return sched.Write
	}
	return sched.Read
}

// Fill overwrites ops with the stream's next len(ops) requests.
func (s *BernoulliStream) Fill(ops sched.Schedule) {
	workload.FillBernoulli(s.rng, s.theta, ops)
}

// DriftingStream draws the section 3 period model — theta redrawn
// uniformly every opsPerPeriod requests — in the exact RNG order of
// workload.Drifting.
type DriftingStream struct {
	rng          *stats.RNG
	opsPerPeriod int
	left         int
	theta        float64
}

// NewDriftingStream returns a stream equivalent to concatenating
// workload.Drifting periods of the given length.
func NewDriftingStream(rng *stats.RNG, opsPerPeriod int) *DriftingStream {
	return &DriftingStream{rng: rng, opsPerPeriod: opsPerPeriod}
}

// Next implements OpStream.
func (s *DriftingStream) Next() sched.Op {
	if s.left == 0 {
		s.theta = s.rng.Float64()
		s.left = s.opsPerPeriod
	}
	s.left--
	if s.rng.Bernoulli(s.theta) {
		return sched.Write
	}
	return sched.Read
}

// Fill overwrites ops with the stream's next len(ops) requests.
func (s *DriftingStream) Fill(ops sched.Schedule) {
	for len(ops) > 0 {
		if s.left == 0 {
			s.theta = s.rng.Float64()
			s.left = s.opsPerPeriod
		}
		n := min(s.left, len(ops))
		workload.FillBernoulli(s.rng, s.theta, ops[:n])
		s.left -= n
		ops = ops[n:]
	}
}

// fillBlock overwrites ops with the next len(ops) requests of src, in one
// call for the two generators. Like applyBlock it switches on the concrete
// type to keep ops, the engine's stack block, from escaping.
func fillBlock(src OpStream, ops sched.Schedule) {
	switch g := src.(type) {
	case *BernoulliStream:
		g.Fill(ops)
	case *DriftingStream:
		g.Fill(ops)
	default:
		for i := range ops {
			ops[i] = src.Next()
		}
	}
}

// ReplayStream replays n requests drawn from src through p under m,
// ignoring the first warmup requests when accounting, exactly like Replay
// on the materialized schedule. It does not Reset the policy first.
func ReplayStream(p core.Policy, m cost.Model, src OpStream, n, warmup int) Result {
	return replay(p, m, nil, src, n, warmup)
}

// schedPool recycles schedule buffers for the callers that do need a
// materialized schedule (hindsight comparisons, lookahead sweeps): a
// 200k-op buffer is worth reusing across grid cells. Pointers to slices
// are pooled so Put itself does not allocate.
var schedPool = sync.Pool{New: func() any { return new(sched.Schedule) }}

// GetSchedule returns a length-n schedule from the pool. The contents are
// unspecified; fill every element (workload.FillBernoulli does) before
// reading. Return it with PutSchedule when done.
func GetSchedule(n int) sched.Schedule {
	sp := schedPool.Get().(*sched.Schedule)
	if cap(*sp) >= n {
		s := (*sp)[:n]
		*sp = nil
		schedPool.Put(sp)
		return s
	}
	*sp = nil
	schedPool.Put(sp)
	return make(sched.Schedule, n)
}

// PutSchedule returns a schedule obtained from GetSchedule to the pool.
// The caller must not use s afterwards.
func PutSchedule(s sched.Schedule) {
	if cap(s) == 0 {
		return
	}
	sp := schedPool.Get().(*sched.Schedule)
	*sp = s[:0]
	schedPool.Put(sp)
}
