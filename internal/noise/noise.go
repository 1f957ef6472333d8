// Package noise implements the noise-matrix toolkit of the paper's Section 4
// ("Handling Non-Uniform Noise").
//
// A noise matrix N over a message alphabet Σ of size d is a stochastic d×d
// matrix: when an agent displaying symbol σ is sampled, the observer receives
// symbol σ′ with probability N[σ][σ′]. The paper classifies noise matrices
// (Definition 1) as
//
//   - δ-lower bounded:  N[σ][σ′] ≥ δ for all σ, σ′;
//   - δ-upper bounded:  N[σ][σ] ≥ 1 − (d−1)δ and N[σ][σ′] ≤ δ for σ ≠ σ′;
//   - δ-uniform:        equality in the above.
//
// The central result reproduced here is Theorem 8 / Proposition 16: for any
// δ-upper-bounded N there is a stochastic "artificial noise" matrix
// P = N⁻¹·T such that applying P to each received message makes the combined
// channel exactly δ′-uniform, where δ′ = f(δ) (Definition 7). Reduce
// computes this decomposition; Channel applies noise (original or artificial)
// to messages, either one observation at a time or in aggregate counts.
package noise

import (
	"errors"
	"fmt"
	"math"

	"noisypull/internal/linalg"
)

// stochTol is the tolerance used when validating stochasticity of matrices
// supplied by callers or produced by the reduction.
const stochTol = 1e-9

// Matrix is a validated stochastic noise matrix over an alphabet of size d.
// Construct one with Uniform, FromRows, or TwoSymbol; the zero value is not
// usable.
type Matrix struct {
	d int
	m *linalg.Matrix
}

// Uniform returns the δ-uniform noise matrix on an alphabet of size d
// (Definition 1): every off-diagonal entry is delta, every diagonal entry is
// 1−(d−1)·delta. It requires d ≥ 2 and 0 ≤ delta ≤ 1/d.
func Uniform(d int, delta float64) (*Matrix, error) {
	if d < 2 {
		return nil, fmt.Errorf("noise: alphabet size %d < 2", d)
	}
	if delta < 0 || delta > 1/float64(d) {
		return nil, fmt.Errorf("noise: delta %v outside [0, 1/%d]", delta, d)
	}
	m := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				m.Set(i, j, 1-float64(d-1)*delta)
			} else {
				m.Set(i, j, delta)
			}
		}
	}
	return &Matrix{d: d, m: m}, nil
}

// TwoSymbol returns the 2×2 noise matrix with independent flip probabilities
// p01 (0 observed as 1) and p10 (1 observed as 0). It is the general binary
// asymmetric channel.
func TwoSymbol(p01, p10 float64) (*Matrix, error) {
	return FromRows([][]float64{
		{1 - p01, p01},
		{p10, 1 - p10},
	})
}

// FromRows validates rows as a stochastic matrix and wraps it. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	m, err := linalg.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("noise: matrix must be square, got %dx%d", m.Rows(), m.Cols())
	}
	if m.Rows() < 2 {
		return nil, errors.New("noise: alphabet size must be at least 2")
	}
	if !m.IsStochastic(stochTol) {
		return nil, errors.New("noise: matrix is not stochastic (rows must be non-negative and sum to 1)")
	}
	return &Matrix{d: m.Rows(), m: m}, nil
}

// Alphabet returns the alphabet size d = |Σ|.
func (n *Matrix) Alphabet() int { return n.d }

// At returns the probability that displayed symbol i is observed as j.
func (n *Matrix) At(i, j int) float64 { return n.m.At(i, j) }

// Row returns a copy of the observation distribution for displayed symbol i.
func (n *Matrix) Row(i int) []float64 { return n.m.Row(i) }

// Linalg returns a deep copy of the underlying matrix for numeric work.
func (n *Matrix) Linalg() *linalg.Matrix { return n.m.Clone() }

// String renders the matrix.
func (n *Matrix) String() string { return n.m.String() }

// UpperDelta returns the smallest δ for which the matrix is δ-upper bounded
// (Definition 1): the maximum of all off-diagonal entries and of
// (1 − N[i][i])/(d−1) over rows i. Every stochastic matrix has such a δ,
// but the reduction of Theorem 8 only applies when δ < 1/d.
func (n *Matrix) UpperDelta() float64 {
	var delta float64
	for i := 0; i < n.d; i++ {
		diagDeficit := (1 - n.m.At(i, i)) / float64(n.d-1)
		if diagDeficit > delta {
			delta = diagDeficit
		}
		for j := 0; j < n.d; j++ {
			if i != j && n.m.At(i, j) > delta {
				delta = n.m.At(i, j)
			}
		}
	}
	return delta
}

// LowerDelta returns the largest δ for which the matrix is δ-lower bounded:
// its minimum entry. This is the quantity the Theorem 3 lower bound is
// stated in.
func (n *Matrix) LowerDelta() float64 {
	min := math.Inf(1)
	for i := 0; i < n.d; i++ {
		for j := 0; j < n.d; j++ {
			if v := n.m.At(i, j); v < min {
				min = v
			}
		}
	}
	return min
}

// IsUpperBounded reports whether the matrix is δ-upper bounded for the given
// delta, within tol.
func (n *Matrix) IsUpperBounded(delta, tol float64) bool {
	for i := 0; i < n.d; i++ {
		if n.m.At(i, i) < 1-float64(n.d-1)*delta-tol {
			return false
		}
		for j := 0; j < n.d; j++ {
			if i != j && n.m.At(i, j) > delta+tol {
				return false
			}
		}
	}
	return true
}

// IsLowerBounded reports whether the matrix is δ-lower bounded for the given
// delta, within tol.
func (n *Matrix) IsLowerBounded(delta, tol float64) bool {
	for i := 0; i < n.d; i++ {
		for j := 0; j < n.d; j++ {
			if n.m.At(i, j) < delta-tol {
				return false
			}
		}
	}
	return true
}

// IsUniform reports whether the matrix is δ-uniform for the given delta,
// within tol (Definition 1: equality in the upper bounds).
func (n *Matrix) IsUniform(delta, tol float64) bool {
	for i := 0; i < n.d; i++ {
		for j := 0; j < n.d; j++ {
			want := delta
			if i == j {
				want = 1 - float64(n.d-1)*delta
			}
			if math.Abs(n.m.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// UniformDelta returns (delta, true) if the matrix is δ-uniform for some
// delta (within tol), identifying delta from the off-diagonal entries; it
// returns (0, false) otherwise.
func (n *Matrix) UniformDelta(tol float64) (float64, bool) {
	delta := n.m.At(0, 1)
	if n.IsUniform(delta, tol) {
		return delta, true
	}
	return 0, false
}

// F is the function f of Definition 7:
//
//	f(0) = 0,   f(δ) = ( d + (1/2)·(1/(d−1))²·(1−dδ)/δ )⁻¹   for δ ∈ (0, 1/d).
//
// Given a δ-upper-bounded noise matrix on an alphabet of size d, f(δ) is the
// uniform-noise level achievable by applying artificial noise (Theorem 8).
// F panics if d < 2; it returns NaN for δ outside [0, 1/d).
func F(delta float64, d int) float64 {
	if d < 2 {
		panic(fmt.Sprintf("noise: F with alphabet size %d", d))
	}
	if delta == 0 {
		return 0
	}
	if delta < 0 || delta >= 1/float64(d) {
		return math.NaN()
	}
	dm1 := float64(d - 1)
	return 1 / (float64(d) + (1-float64(d)*delta)/(2*dm1*dm1*delta))
}

// Reduction is the artificial-noise decomposition of Theorem 8 for a
// δ-upper-bounded noise matrix N: applying the stochastic matrix P to each
// message received under N yields observations distributed exactly as under
// the DeltaPrime-uniform matrix T = N·P.
type Reduction struct {
	// Delta is the upper-bound level of the input matrix (UpperDelta).
	Delta float64
	// DeltaPrime = f(Delta) is the uniform noise level after reduction.
	DeltaPrime float64
	// T is the DeltaPrime-uniform target matrix.
	T *Matrix
	// P = N⁻¹·T is the stochastic artificial-noise matrix agents apply to
	// received messages (Proposition 16).
	P *Matrix
}

// Reduce computes the artificial-noise reduction for N (Theorem 8,
// Proposition 16). It returns an error if N's upper-bound level δ is not
// below 1/d (the reduction is undefined there), or if numerical error makes
// the computed P non-stochastic beyond tolerance. Small negative entries
// within tolerance are clamped to 0 and rows renormalized.
func Reduce(n *Matrix) (*Reduction, error) {
	d := n.d
	delta := n.UpperDelta()
	if delta >= 1/float64(d) {
		return nil, fmt.Errorf("noise: upper-bound level delta=%v >= 1/%d; reduction undefined", delta, d)
	}
	deltaPrime := F(delta, d)
	t, err := Uniform(d, deltaPrime)
	if err != nil {
		return nil, fmt.Errorf("noise: building target matrix: %w", err)
	}
	inv, err := n.m.Inverse()
	if err != nil {
		// Cannot happen for delta < 1/d by Corollary 14; report it anyway.
		return nil, fmt.Errorf("noise: inverting N: %w", err)
	}
	p, err := inv.Mul(t.m)
	if err != nil {
		return nil, fmt.Errorf("noise: forming P = N^-1 T: %w", err)
	}
	if !p.IsStochastic(1e-7) {
		return nil, fmt.Errorf("noise: computed P is not stochastic; N may violate the delta-upper-bounded structure:\n%v", p)
	}
	// Clamp tiny numerical negatives and renormalize each row so Channel's
	// samplers receive clean distributions.
	for i := 0; i < d; i++ {
		row := p.RowView(i)
		var sum float64
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return &Reduction{
		Delta:      delta,
		DeltaPrime: deltaPrime,
		T:          t,
		P:          &Matrix{d: d, m: p},
	}, nil
}

// Compose returns the noise matrix of the composed channel "first a, then
// b", i.e. the product a·b. The product is a fresh matrix, so it is wrapped
// as it is once it passes FromRows's stochasticity check.
func Compose(a, b *Matrix) (*Matrix, error) {
	if a.d != b.d {
		return nil, fmt.Errorf("noise: cannot compose alphabets %d and %d", a.d, b.d)
	}
	m, err := a.m.Mul(b.m)
	if err != nil {
		return nil, err
	}
	if !m.IsStochastic(stochTol) {
		return nil, errors.New("noise: composed matrix is not stochastic (rows must be non-negative and sum to 1)")
	}
	return &Matrix{d: a.d, m: m}, nil
}
