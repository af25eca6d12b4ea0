package main

import (
	"math"
	"math/bits"
	"sync"
)

// hist is a fixed-size latency histogram over nanoseconds: values below
// 128 ns are counted exactly, larger ones in 64 sub-buckets per power of
// two (bucket width under 1.6 % of the value). It never allocates after
// creation, so recording a sample costs the same on the first operation
// and the ten-millionth, and the timed pass holds no per-sample memory.
// Quantiles interpolate by rank inside the bucket, so a reported value
// moves continuously with the samples instead of snapping to bucket edges.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histExact   = 128 // values below this have their own bucket
	histSub     = 64  // sub-buckets per power of two above histExact
	histMaxExp  = 42  // values are clamped below 2^42 ns (73 minutes)
	histBuckets = histExact + (histMaxExp-7)*histSub
)

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	e := bits.Len64(v) - 1 // 7 <= e < histMaxExp
	return histExact + (e-7)*histSub + int((v>>(uint(e)-6))&(histSub-1))
}

// bucketBounds returns the lowest value of bucket idx and the bucket width.
func bucketBounds(idx int) (lo, width float64) {
	if idx < histExact {
		return float64(idx), 1
	}
	e := uint((idx-histExact)/histSub + 7)
	sub := uint64((idx - histExact) % histSub)
	return float64((histSub + sub) << (e - 6)), float64(uint64(1) << (e - 6))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}

// tail returns the highest of the usual percentiles that still has at
// least ten samples beyond it, and its value in nanoseconds.
func (h *hist) tail() (pct, ns float64) {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9} {
		if float64(h.n)*(1-p) >= 10-1e-6 { // 1-p is not exact in binary
			return p * 100, h.quantile(p)
		}
	}
	return 50, h.quantile(0.5)
}

// lockedHist is a hist shared between goroutines (tap callbacks run on
// transport read loops and on writers at once).
type lockedHist struct {
	mu sync.Mutex
	h  hist
}

func (l *lockedHist) add(ns int64) {
	l.mu.Lock()
	l.h.add(ns)
	l.mu.Unlock()
}

func (l *lockedHist) reset() {
	l.mu.Lock()
	l.h = hist{}
	l.mu.Unlock()
}

func (l *lockedHist) snapshot() *hist {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.h
	return &c
}

func us(ns float64) float64 { return ns / 1e3 }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
