package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// Baseline policies from the literatures the paper compares against in
// section 8. None of them is the paper's contribution; they exist so the
// experiments can quantify the sliding window against what a caching or
// estimator-based system would do on the same workloads.

// CacheInvalidate is the classic caching discipline of the CDVM
// literature (section 8.2): allocate on every read miss, invalidate on
// every write (the server sends an invalidation instead of data, like
// SW1's delete-request). Its allocation behaviour is identical to SW1 —
// the copy exists exactly when the most recent request was a read — which
// is itself an observation worth demonstrating: SW1 is callback
// invalidation in allocation terms, and the window family generalizes it.
type CacheInvalidate struct {
	hasCopy bool
}

// NewCacheInvalidate returns the cache-and-invalidate baseline.
func NewCacheInvalidate() *CacheInvalidate { return &CacheInvalidate{} }

// Name implements Policy.
func (*CacheInvalidate) Name() string { return "CacheInv" }

// HasCopy implements Policy.
func (c *CacheInvalidate) HasCopy() bool { return c.hasCopy }

// Apply implements Policy.
func (c *CacheInvalidate) Apply(op sched.Op) Step {
	had := c.hasCopy
	if op == sched.Read {
		c.hasCopy = true
		return step(op, had, true, false)
	}
	c.hasCopy = false
	// Invalidation carries no data, like SW1's delete-request.
	return step(op, had, false, had)
}

// Reset implements Policy.
func (c *CacheInvalidate) Reset() { c.hasCopy = false }

// EWMA is an estimator-based allocation method: it tracks the write
// fraction with an exponentially weighted moving average and holds a copy
// while the estimate stays below a threshold band. It is the natural
// "statistical" alternative to the paper's counting window — the window
// weights the last k requests equally and forgets everything older, while
// the EWMA weights all history geometrically. The experiments compare the
// two on expected cost, adaptation lag and worst case (the EWMA has no
// competitive bound: an adversary can pin the estimate at the threshold).
//
// The band [Low, High] adds hysteresis: the copy is dropped only when the
// estimate rises above High and re-acquired (on a read) only when it
// falls below Low. Low = High = 0.5 gives the memoryless analogue of the
// window's majority rule.
type EWMA struct {
	// Alpha is the smoothing factor in (0, 1]: the weight of the newest
	// request. Small alpha = long memory.
	Alpha float64
	// Low and High bound the hysteresis band on the write-fraction
	// estimate, 0 <= Low <= High <= 1.
	Low, High float64

	estimate float64
	hasCopy  bool
}

// NewEWMA returns an estimator policy with the majority threshold
// (Low = High = 0.5) and the given smoothing factor.
func NewEWMA(alpha float64) *EWMA { return NewEWMABand(alpha, 0.5, 0.5) }

// NewEWMABand returns an estimator policy with a hysteresis band.
func NewEWMABand(alpha, low, high float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: EWMA alpha %v outside (0,1]", alpha))
	}
	if low < 0 || high > 1 || low > high {
		panic(fmt.Sprintf("core: EWMA band [%v,%v] invalid", low, high))
	}
	return &EWMA{Alpha: alpha, Low: low, High: high, estimate: 1}
}

// Name implements Policy.
func (e *EWMA) Name() string {
	if e.Low == 0.5 && e.High == 0.5 {
		return Spec{Kind: KindEWMA, Alpha: e.Alpha}.String()
	}
	return fmt.Sprintf("EWMA(%.2f,%.2f-%.2f)", e.Alpha, e.Low, e.High)
}

// HasCopy implements Policy.
func (e *EWMA) HasCopy() bool { return e.hasCopy }

// Estimate returns the current write-fraction estimate.
func (e *EWMA) Estimate() float64 { return e.estimate }

// Apply implements Policy. Allocation follows the same piggyback rules as
// the window family: a copy can only be acquired on a read and dropped on
// a write, so transitions always coincide with a message that is being
// sent anyway.
func (e *EWMA) Apply(op sched.Op) Step {
	had := e.hasCopy
	x := 0.0
	if op == sched.Write {
		x = 1
	}
	e.estimate = (1-e.Alpha)*e.estimate + e.Alpha*x

	switch {
	case !had && op == sched.Read && e.estimate < e.Low:
		e.hasCopy = true
	case had && op == sched.Write && e.estimate > e.High:
		e.hasCopy = false
	}
	return step(op, had, e.hasCopy, false)
}

// Reset implements Policy. The estimate starts at 1 (assume write-heavy),
// matching the window family's all-writes initial fill.
func (e *EWMA) Reset() {
	e.estimate = 1
	e.hasCopy = false
}
