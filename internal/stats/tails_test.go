package stats

import (
	"math"
	"testing"
)

func TestBetaIncKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{1, 1, 0.3, 0.3},         // I_x(1,1) = x
		{1, 1, 0.7, 0.7},         //
		{2, 1, 0.5, 0.25},        // I_x(2,1) = x²
		{1, 2, 0.5, 0.75},        // I_x(1,2) = 1−(1−x)²
		{2, 2, 0.5, 0.5},         // symmetric at x = 1/2
		{0.5, 0.5, 0.5, 0.5},     // arcsine distribution median
		{5, 3, 0, 0},             // boundary
		{5, 3, 1, 1},             // boundary
		{3, 7, 0.3, 0.537168834}, // = P(Binom(9, 0.3) ≥ 3), summed by hand
	}
	for _, c := range cases {
		got := BetaInc(c.a, c.b, c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BetaInc(%v, %v, %v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestBetaIncComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 7, 33, 150} {
		for _, b := range []float64{0.5, 1, 3, 12, 90} {
			for x := 0.05; x < 1; x += 0.1 {
				sum := BetaInc(a, b, x) + BetaInc(b, a, 1-x)
				if math.Abs(sum-1) > 1e-11 {
					t.Fatalf("I_%v(%v,%v) + I_%v(%v,%v) = %v, want 1", x, a, b, 1-x, b, a, sum)
				}
			}
		}
	}
}

// TestBinomTailMatchesCDF pins the O(1) beta-function tail against the O(n)
// summation CDF across a grid covering central and extreme regimes.
func TestBinomTailMatchesCDF(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 257} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.73, 0.99} {
			for k := 0; k <= n+1; k++ {
				want := 1 - BinomCDF(n, p, k-1)
				got := BinomTail(n, p, k)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("BinomTail(%d, %v, %d) = %v, want %v", n, p, k, got, want)
				}
			}
		}
	}
}

func TestBinomTailEdges(t *testing.T) {
	if got := BinomTail(10, 0.3, 0); got != 1 {
		t.Errorf("BinomTail(10, 0.3, 0) = %v, want 1", got)
	}
	if got := BinomTail(10, 0.3, -2); got != 1 {
		t.Errorf("BinomTail(10, 0.3, -2) = %v, want 1", got)
	}
	if got := BinomTail(10, 0.3, 11); got != 0 {
		t.Errorf("BinomTail(10, 0.3, 11) = %v, want 0", got)
	}
	if got := BinomTail(10, 0, 1); got != 0 {
		t.Errorf("BinomTail(10, 0, 1) = %v, want 0", got)
	}
	if got := BinomTail(10, 1, 10); got != 1 {
		t.Errorf("BinomTail(10, 1, 10) = %v, want 1", got)
	}
}

// TestMajorityWin pins the majority-with-coin-tie win probability against
// direct PMF summation.
func TestMajorityWin(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 5, 8, 31, 64} {
		for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
			var want float64
			for k := 0; k <= m; k++ {
				switch {
				case 2*k > m:
					want += BinomPMF(m, p, k)
				case 2*k == m:
					want += 0.5 * BinomPMF(m, p, k)
				}
			}
			got := MajorityWin(m, p)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("MajorityWin(%d, %v) = %v, want %v", m, p, got, want)
			}
		}
	}
	if got := MajorityWin(0, 0.9); got != 0.5 {
		t.Errorf("MajorityWin(0, 0.9) = %v, want 0.5", got)
	}
	// Symmetry: at p = 1/2 the win probability is exactly 1/2 for every m.
	for m := 1; m <= 40; m++ {
		if got := MajorityWin(m, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("MajorityWin(%d, 0.5) = %v, want 0.5", m, got)
		}
	}
}
