package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming moment statistics using Welford's method,
// which is numerically stable for long runs.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into this one (parallel Welford combination).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	delta := o.mean - s.mean
	total := s.n + o.n
	s.mean += delta * float64(o.n) / float64(total)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(total)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = total
}

// N returns the number of observations.
func (s Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 for an empty summary.
func (s Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 for an empty summary.
func (s Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean. For the trial counts used by the experiments
// (dozens and up) the normal approximation is adequate.
func (s Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String renders the summary for logs and experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6f ±%.6f [%.6f, %.6f]",
		s.n, s.Mean(), s.CI95(), s.min, s.max)
}
