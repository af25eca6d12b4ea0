package load

import (
	"math"
	"math/bits"
	"time"
)

// recorder is a fixed-space log-linear histogram of durations: every
// value under exact nanoseconds has a bucket of its own, and each power
// of two above that splits into 1<<subBits buckets, so a bucket is at
// most 1/64 of its lower bound wide. Recording costs one bucket
// increment and never allocates, however long the run.
type recorder struct {
	n      uint64
	max    time.Duration
	counts [buckets]uint64
}

const (
	subBits = 6
	exact   = 2 << subBits // 128: values below are recorded exactly
	// A positive time.Duration has at most 63 significant bits, so the
	// largest shift is 63-(subBits+1).
	buckets = exact + (63-subBits-1)<<subBits
)

// bucket returns v's bucket index.
func bucket(v uint64) int {
	if v < exact {
		return int(v)
	}
	e := bits.Len64(v) - (subBits + 1) // v>>e has subBits+1 bits
	return exact + (e-1)<<subBits + int(v>>e) - 1<<subBits
}

// upper returns the largest value bucket i holds.
func upper(i int) time.Duration {
	if i < exact {
		return time.Duration(i)
	}
	e := (i-exact)>>subBits + 1
	top := uint64(i-exact)&(1<<subBits-1) + 1<<subBits
	return time.Duration((top+1)<<e - 1)
}

func (r *recorder) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.n++
	r.counts[bucket(uint64(d))]++
	if d > r.max {
		r.max = d
	}
}

func (r *recorder) merge(o *recorder) {
	r.n += o.n
	for i, c := range &o.counts {
		r.counts[i] += c
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// quantile returns the upper bound of the bucket holding the nearest-rank
// q-quantile (rank ceil(q·n)), capped at the maximum: never below the
// exact nearest rank, and above it by at most 1/64. Zero when empty.
func (r *recorder) quantile(q float64) time.Duration {
	if r.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(r.n)))
	rank = min(max(rank, 1), r.n)
	var seen uint64
	for i, c := range &r.counts {
		if seen += c; seen >= rank {
			return min(upper(i), r.max)
		}
	}
	return r.max
}
