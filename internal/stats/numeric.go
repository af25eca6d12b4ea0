package stats

import "math"

// Integrate approximates the definite integral of f over [a, b] with
// composite Simpson's rule on 2*halves panels. It is used to cross-check
// the paper's closed-form AVG results, which are integrals of the expected
// cost over theta in [0, 1].
func Integrate(f func(float64) float64, a, b float64, halves int) float64 {
	if halves < 1 {
		halves = 1
	}
	n := 2 * halves
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// LogBinomial returns ln C(n, k) computed with log-gamma so that the
// binomial terms in pi_k stay finite for large windows.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// Binomial returns C(n, k) as a float64. It overflows to +Inf rather than
// wrapping for very large arguments.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	return math.Exp(LogBinomial(n, k))
}

// BinomialPMF returns P[Bin(n, p) = k].
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := LogBinomial(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logp)
}

// BinomialCDF returns P[Bin(n, p) <= k] by direct summation. The window
// sizes in this repository are at most a few hundred, so summation is both
// exact enough and fast enough.
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	sum := 0.0
	for j := 0; j <= k; j++ {
		sum += BinomialPMF(n, j, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
