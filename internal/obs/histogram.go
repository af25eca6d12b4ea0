package obs

import (
	"math"
	"sync/atomic"
)

// The histogram layout. A positive value's bucket key is its float64 bits
// above the top subBits mantissa bits, rounded up: its binary exponent and
// its top six mantissa bits. Every power of two therefore splits into 64
// buckets, each at most 1/64 of its lower bound wide, and bucket i holds
// the values in (bound(i-1), bound(i)]. An integer under 128 has no more
// significant bits than a bound, so it is a bound of its own and is
// recorded exactly. Bucket 0 holds zero and below; positive values outside
// [2^minExp, 2^maxExp] are clamped into the end buckets.
const (
	subBits        = 6
	mantShift      = 52 - subBits
	minExp, maxExp = -16, 63
	lowKey         = (minExp + 1023) << subBits // bucket 1, bound 2^minExp
	highKey        = (maxExp + 1023) << subBits // the last bucket, bound 2^maxExp
	numBuckets     = highKey - lowKey + 2
)

// bound returns the largest value bucket i holds.
func bound(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Float64frombits(uint64(lowKey+i-1) << mantShift)
}

// Histogram counts observations in the fixed log-linear layout above, so
// no histogram needs bounds, a scale or a unit. Observe is lock-free and
// allocation-free: one atomic add on the bucket, one on the count, a CAS
// loop folding the value into the float64 sum, and one raising the
// maximum (non-negative float64 bits order like the values). The zero
// value is ready to use.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits of the largest positive observation
	counts [numBuckets]atomic.Uint64
}

// NewHistogram builds a standalone histogram, one no registry exposes.
// Registry users call Registry.Histogram instead.
func NewHistogram() *Histogram { return new(Histogram) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	if v > 0 {
		b := math.Float64bits(v)
		i = int(min(max((b+1<<mantShift-1)>>mantShift, lowKey), highKey)-lowKey) + 1
		for old := h.max.Load(); b > old; old = h.max.Load() {
			if h.max.CompareAndSwap(old, b) {
				break
			}
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot copies the histogram out. Each cell is read atomically; skew
// across cells is bounded by in-flight Observes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	// Read the total first: Observe bumps its bucket before the total, so
	// Count ≤ sum(Counts) and cumulative emission stays sane.
	s := HistogramSnapshot{Count: h.count.Load(), Counts: make([]uint64, numBuckets)}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Max = math.Float64frombits(h.max.Load())
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a copy of a histogram's state: Counts[i] is the
// number of observations in bucket i of the fixed layout, and Max the
// largest observation (zero when none was positive).
type HistogramSnapshot struct {
	Counts   []uint64
	Count    uint64
	Sum, Max float64
}

// Merge adds o's observations to s, as if one histogram had seen both.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, numBuckets)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Max = max(s.Max, o.Max)
}

// Quantile returns the upper bound of the bucket holding the nearest-rank
// q-quantile (rank ceil(q·Count)), capped at Max: never below the exact
// nearest rank, above it by at most 1/64, and exact under 128. Zero when
// empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := min(uint64(max(math.Ceil(q*float64(s.Count)), 1)), s.Count)
	var seen uint64
	for i, c := range s.Counts {
		if seen += c; seen >= rank {
			return min(bound(i), s.Max)
		}
	}
	return s.Max
}
