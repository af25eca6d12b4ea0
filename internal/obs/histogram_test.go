package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// percentile observes samples and reads back the q-quantile.
func percentile(samples []float64, q float64) float64 {
	h := NewHistogram()
	for _, s := range samples {
		h.Observe(s)
	}
	return h.Snapshot().Quantile(q)
}

// TestPercentileNearestRank pins the exact nearest-rank semantics: index
// ceil(q*n)-1, so p99 of exactly 100 samples is the 99th value, not the
// maximum, and tiny sample sets degrade predictably to the max.
func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if got := percentile(samples, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(samples, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(samples, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	small := samples[:50]
	if got := percentile(small, 0.99); got != 50 {
		t.Errorf("p99 of 1..50 = %v, want 50 (the max: fewer than 100 samples)", got)
	}
	if got := percentile(small, 0.50); got != 25 {
		t.Errorf("p50 of 1..50 = %v, want 25", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of no samples = %v, want 0", got)
	}
	if got := percentile(samples[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %v, want that sample", got)
	}
}

// TestQuantileBound checks every reported quantile of seeded samples,
// spread log-uniformly from 1 to about 1.7e10 (1 ns to 17 s in
// nanoseconds), against the exact nearest rank: never below it, above it
// by at most 1/64, exact under 128; and Max exact.
func TestQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for trial := 0; trial < 20; trial++ {
		samples := make([]float64, 1+rng.Intn(5000))
		h := NewHistogram()
		for i := range samples {
			samples[i] = float64(rng.Int63n(1 << (1 + rng.Intn(34))))
			h.Observe(samples[i])
		}
		s := h.Snapshot()
		slices.Sort(samples)
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := samples[max(int(math.Ceil(q*float64(len(samples))))-1, 0)]
			hi := exact * (1 + 1.0/64)
			if exact < 128 {
				hi = exact
			}
			if got := s.Quantile(q); got < exact || got > hi {
				t.Fatalf("trial %d, n=%d: q%v = %v, exact %v (allowed up to %v)",
					trial, len(samples), q, got, exact, hi)
			}
		}
		if s.Max != samples[len(samples)-1] {
			t.Fatalf("trial %d: max %v, want %v", trial, s.Max, samples[len(samples)-1])
		}
	}
}
