package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntegratePolynomials(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 2 }, 0, 3, 6},
		{"linear", func(x float64) float64 { return x }, 0, 1, 0.5},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 1, 1.0 / 3},
		{"cubic", func(x float64) float64 { return x * x * x }, -1, 1, 0},
		{"sin", math.Sin, 0, math.Pi, 2},
	}
	for _, c := range cases {
		got := Integrate(c.f, c.a, c.b, 200)
		if math.Abs(got-c.want) > 1e-8 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIntegrateMinHalves(t *testing.T) {
	// halves < 1 is clamped; Simpson on one panel pair is exact for cubics.
	got := Integrate(func(x float64) float64 { return x * x }, 0, 1, 0)
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {10, 5, 252},
		{20, 10, 184756}, {5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		got := Binomial(c.n, c.k)
		if math.Abs(got-c.want) > 1e-6*c.want+1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	check := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 2
		k := int(kRaw) % n
		if k == 0 {
			k = 1
		}
		lhs := Binomial(n, k)
		rhs := Binomial(n-1, k-1) + Binomial(n-1, k)
		return math.Abs(lhs-rhs) <= 1e-9*lhs
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 21, 95} {
		for _, p := range []float64{0, 0.1, 0.5, 0.93, 1} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, k, p)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("n=%d p=%v: pmf sum %v", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(5, -1, 0.5) != 0 || BinomialPMF(5, 6, 0.5) != 0 {
		t.Fatal("out-of-range k should have zero mass")
	}
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 5, 1) != 1 {
		t.Fatal("degenerate p mass misplaced")
	}
	if BinomialPMF(5, 3, 0) != 0 || BinomialPMF(5, 3, 1) != 0 {
		t.Fatal("degenerate p should concentrate at the edge")
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	n, p := 21, 0.37
	prev := -1.0
	for k := -1; k <= n+1; k++ {
		c := BinomialCDF(n, k, p)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at k=%d: %v < %v", k, c, prev)
		}
		prev = c
	}
	if BinomialCDF(n, -1, p) != 0 {
		t.Fatal("CDF(-1) != 0")
	}
	if BinomialCDF(n, n, p) != 1 {
		t.Fatal("CDF(n) != 1")
	}
}

func TestBinomialCDFMatchesSampling(t *testing.T) {
	r := NewRNG(77)
	n, k, p := 15, 7, 0.6
	hits := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		writes := 0
		for j := 0; j < n; j++ {
			if r.Bernoulli(p) {
				writes++
			}
		}
		if writes <= k {
			hits++
		}
	}
	emp := float64(hits) / draws
	want := BinomialCDF(n, k, p)
	if math.Abs(emp-want) > 0.01 {
		t.Fatalf("empirical %v vs analytic %v", emp, want)
	}
}

func TestLogBinomialOutOfRange(t *testing.T) {
	if !math.IsInf(LogBinomial(5, 9), -1) {
		t.Fatal("LogBinomial out of range should be -Inf")
	}
}
