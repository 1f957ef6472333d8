package noise

import (
	"math"
	"testing"
	"testing/quick"

	"noisypull/internal/rng"
)

func mustUniform(t *testing.T, d int, delta float64) *Matrix {
	t.Helper()
	n, err := Uniform(d, delta)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUniformConstruction(t *testing.T) {
	n := mustUniform(t, 2, 0.2)
	if n.Alphabet() != 2 {
		t.Fatalf("Alphabet = %d", n.Alphabet())
	}
	if n.At(0, 0) != 0.8 || n.At(0, 1) != 0.2 || n.At(1, 0) != 0.2 || n.At(1, 1) != 0.8 {
		t.Fatalf("Uniform(2, 0.2) = \n%v", n)
	}
	n4 := mustUniform(t, 4, 0.1)
	if math.Abs(n4.At(2, 2)-0.7) > 1e-12 {
		t.Fatalf("Uniform(4, 0.1) diagonal = %v", n4.At(2, 2))
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(1, 0.1); err == nil {
		t.Error("Uniform(1, .) did not error")
	}
	if _, err := Uniform(2, -0.1); err == nil {
		t.Error("negative delta did not error")
	}
	if _, err := Uniform(2, 0.6); err == nil {
		t.Error("delta > 1/d did not error")
	}
	// delta = 1/d is the completely noisy channel; allowed by Definition 1.
	if _, err := Uniform(2, 0.5); err != nil {
		t.Errorf("delta = 1/d errored: %v", err)
	}
}

func TestTwoSymbol(t *testing.T) {
	n, err := TwoSymbol(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if n.At(0, 1) != 0.1 || n.At(1, 0) != 0.3 {
		t.Fatalf("TwoSymbol = \n%v", n)
	}
	if _, err := TwoSymbol(1.5, 0); err == nil {
		t.Error("invalid flip probability did not error")
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows([][]float64{{0.5, 0.5}, {0.3, 0.6}}); err == nil {
		t.Error("non-stochastic rows did not error")
	}
	if _, err := FromRows([][]float64{{1.5, -0.5}, {0.5, 0.5}}); err == nil {
		t.Error("negative entry did not error")
	}
	if _, err := FromRows([][]float64{{1}}); err == nil {
		t.Error("1x1 matrix did not error")
	}
	if _, err := FromRows([][]float64{{0.5, 0.5, 0}, {0.3, 0.7, 0}}); err == nil {
		t.Error("non-square matrix did not error")
	}
}

func TestClassification(t *testing.T) {
	n := mustUniform(t, 2, 0.2)
	if got := n.UpperDelta(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("UpperDelta = %v", got)
	}
	if got := n.LowerDelta(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("LowerDelta = %v", got)
	}
	if !n.IsUniform(0.2, 1e-12) {
		t.Fatal("uniform matrix not classified uniform")
	}
	if !n.IsUpperBounded(0.2, 1e-12) || !n.IsLowerBounded(0.2, 1e-12) {
		t.Fatal("uniform matrix not upper/lower bounded at its own delta")
	}
	if n.IsUniform(0.3, 1e-12) {
		t.Fatal("matrix classified uniform at wrong delta")
	}
	if d, ok := n.UniformDelta(1e-12); !ok || math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("UniformDelta = %v, %v", d, ok)
	}

	asym, err := TwoSymbol(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := asym.UniformDelta(1e-12); ok {
		t.Fatal("asymmetric matrix classified uniform")
	}
	if got := asym.UpperDelta(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("asymmetric UpperDelta = %v", got)
	}
	if got := asym.LowerDelta(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("asymmetric LowerDelta = %v", got)
	}
	if asym.IsUpperBounded(0.2, 1e-12) {
		t.Fatal("0.3-flip matrix classified 0.2-upper-bounded")
	}
}

func TestFDefinition(t *testing.T) {
	// f(0) = 0.
	if got := F(0, 2); got != 0 {
		t.Fatalf("F(0, 2) = %v", got)
	}
	// Closed form for d = 2, delta = 0.1: 1/(2 + 0.8/(2*0.1)) = 1/6.
	if got := F(0.1, 2); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("F(0.1, 2) = %v, want 1/6", got)
	}
	// Section 5.3.3 form for d = 2: delta' = (2 + (1-2delta)/(2delta))^-1.
	for _, delta := range []float64{0.05, 0.2, 0.35, 0.49} {
		want := 1 / (2 + (1-2*delta)/(2*delta))
		if got := F(delta, 2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("F(%v, 2) = %v, want %v", delta, got, want)
		}
	}
	// Out of domain.
	if got := F(0.5, 2); !math.IsNaN(got) {
		t.Fatalf("F(0.5, 2) = %v, want NaN", got)
	}
	if got := F(-0.1, 2); !math.IsNaN(got) {
		t.Fatalf("F(-0.1, 2) = %v, want NaN", got)
	}
}

func TestFPanicsOnBadAlphabet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("F(., 1) did not panic")
		}
	}()
	F(0.1, 1)
}

// TestFClaim15 checks Claim 15: f is increasing on [0, 1/d) and
// 0 = f(0) <= f(delta) < 1/d, and additionally f(delta) >= delta (artificial
// noise can only increase the noise level).
func TestFClaim15(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		limit := 1 / float64(d)
		prev := 0.0
		for i := 1; i < 200; i++ {
			delta := limit * float64(i) / 200
			v := F(delta, d)
			if math.IsNaN(v) {
				t.Fatalf("F(%v, %d) is NaN in-domain", delta, d)
			}
			if v <= prev {
				t.Fatalf("F not increasing at delta=%v d=%d: %v <= %v", delta, d, v, prev)
			}
			if v >= limit {
				t.Fatalf("F(%v, %d) = %v >= 1/d", delta, d, v)
			}
			if v < delta-1e-12 {
				t.Fatalf("F(%v, %d) = %v < delta", delta, d, v)
			}
			prev = v
		}
	}
}

func TestReduceUniformInput(t *testing.T) {
	// Reducing an already-uniform matrix still produces a valid reduction
	// at the (strictly larger) level f(delta).
	n := mustUniform(t, 2, 0.2)
	red, err := Reduce(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(red.Delta-0.2) > 1e-12 {
		t.Fatalf("Delta = %v", red.Delta)
	}
	if math.Abs(red.DeltaPrime-F(0.2, 2)) > 1e-12 {
		t.Fatalf("DeltaPrime = %v, want %v", red.DeltaPrime, F(0.2, 2))
	}
	assertReductionValid(t, n, red)
}

func TestReduceAsymmetric(t *testing.T) {
	n, err := TwoSymbol(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(n)
	if err != nil {
		t.Fatal(err)
	}
	assertReductionValid(t, n, red)
}

func TestReduceFourSymbols(t *testing.T) {
	// A 4-symbol delta-upper-bounded matrix with uneven off-diagonals,
	// as used by the SSF protocol's alphabet {0,1}^2.
	n, err := FromRows([][]float64{
		{0.85, 0.05, 0.04, 0.06},
		{0.02, 0.90, 0.05, 0.03},
		{0.06, 0.01, 0.88, 0.05},
		{0.03, 0.04, 0.02, 0.91},
	})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(n)
	if err != nil {
		t.Fatal(err)
	}
	assertReductionValid(t, n, red)
}

// assertReductionValid checks the two guarantees of Proposition 16:
// P is stochastic and N·P equals the DeltaPrime-uniform matrix.
func assertReductionValid(t *testing.T, n *Matrix, red *Reduction) {
	t.Helper()
	d := n.Alphabet()
	if !red.P.m.IsStochastic(1e-9) {
		t.Fatalf("P is not stochastic:\n%v", red.P)
	}
	prod, err := Compose(n, red.P)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.IsUniform(red.DeltaPrime, 1e-9) {
		t.Fatalf("N*P is not %v-uniform:\n%v", red.DeltaPrime, prod)
	}
	if red.T.Alphabet() != d || !red.T.IsUniform(red.DeltaPrime, 1e-12) {
		t.Fatalf("T is not the uniform target:\n%v", red.T)
	}
}

// TestReducePropertyRandomMatrices is the property-based test of
// Proposition 16: for random delta-upper-bounded matrices of several
// alphabet sizes, the computed P is stochastic and N·P is f(delta)-uniform.
func TestReducePropertyRandomMatrices(t *testing.T) {
	r := rng.New(4242)
	f := func(dRaw, levelRaw uint8) bool {
		d := 2 + int(dRaw%5) // alphabet sizes 2..6
		// Target upper-bound level in (0, 1/d), bounded away from the edge.
		delta := (0.05 + 0.85*float64(levelRaw)/255) / float64(d)
		n := randomUpperBounded(r, d, delta)
		red, err := Reduce(n)
		if err != nil {
			return false
		}
		if !red.P.m.IsStochastic(1e-8) {
			return false
		}
		prod, err := Compose(n, red.P)
		if err != nil {
			return false
		}
		return prod.IsUniform(red.DeltaPrime, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomUpperBounded builds a random delta-upper-bounded stochastic matrix:
// off-diagonal entries uniform in [0, delta], remainder on the diagonal.
func randomUpperBounded(r *rng.Stream, d int, delta float64) *Matrix {
	rows := make([][]float64, d)
	for i := range rows {
		rows[i] = make([]float64, d)
		sum := 0.0
		for j := 0; j < d; j++ {
			if j == i {
				continue
			}
			v := r.Float64() * delta
			rows[i][j] = v
			sum += v
		}
		rows[i][i] = 1 - sum
	}
	n, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return n
}

func TestReduceRejectsTooNoisy(t *testing.T) {
	// delta = 1/d: completely noisy channel; reduction undefined.
	n := mustUniform(t, 2, 0.5)
	if _, err := Reduce(n); err == nil {
		t.Fatal("Reduce at delta = 1/d did not error")
	}
}

func TestComposeMismatch(t *testing.T) {
	a := mustUniform(t, 2, 0.1)
	b := mustUniform(t, 3, 0.1)
	if _, err := Compose(a, b); err == nil {
		t.Fatal("Compose with mismatched alphabets did not error")
	}
}

func TestChannelApplyDistribution(t *testing.T) {
	n := mustUniform(t, 2, 0.25)
	c, err := NewChannel(n)
	if err != nil {
		t.Fatal(err)
	}
	if c.Matrix() != n {
		t.Fatal("Matrix() does not round-trip")
	}
	r := rng.New(5)
	const draws = 100000
	flips := 0
	for i := 0; i < draws; i++ {
		if c.Apply(r, 0) == 1 {
			flips++
		}
	}
	got := float64(flips) / draws
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("flip rate = %v, want 0.25", got)
	}
}

// TestArtificialNoiseEndToEnd simulates Definition 6: messages pushed
// through channel N then channel P are distributed as through T = N·P.
// This is the message-law equality at the heart of Theorem 8.
func TestArtificialNoiseEndToEnd(t *testing.T) {
	n, err := TwoSymbol(0.15, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(n)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewChannel(n)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewChannel(red.P)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewChannel(red.T)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	const draws = 200000
	for _, orig := range []int{0, 1} {
		combined, direct := 0, 0
		for i := 0; i < draws; i++ {
			combined += cp.Apply(r, cn.Apply(r, orig))
			direct += ct.Apply(r, orig)
		}
		pc := float64(combined) / draws
		pd := float64(direct) / draws
		// Each is a Bernoulli mean over 200k draws: sd ~ 0.0011.
		if math.Abs(pc-pd) > 0.006 {
			t.Fatalf("origin %d: combined law %v vs direct law %v", orig, pc, pd)
		}
		var want float64
		if orig == 0 {
			want = red.DeltaPrime
		} else {
			want = 1 - red.DeltaPrime
		}
		if math.Abs(pc-want) > 0.006 {
			t.Fatalf("origin %d: combined law %v, want %v", orig, pc, want)
		}
	}
}

func TestLinalgCopy(t *testing.T) {
	n := mustUniform(t, 2, 0.2)
	l := n.Linalg()
	l.Set(0, 0, 0)
	if n.At(0, 0) != 0.8 {
		t.Fatal("Linalg() did not copy")
	}
}

func TestRowCopy(t *testing.T) {
	n := mustUniform(t, 2, 0.2)
	row := n.Row(0)
	row[0] = 99
	if n.At(0, 0) != 0.8 {
		t.Fatal("Row() did not copy")
	}
}

// TestClassificationInvariantsProperty: for random stochastic matrices,
// UpperDelta/LowerDelta behave coherently: the matrix is always
// upper-bounded at its UpperDelta and lower-bounded at its LowerDelta,
// never at tighter levels, and LowerDelta <= UpperDelta.
func TestClassificationInvariantsProperty(t *testing.T) {
	r := rng.New(606)
	f := func(dRaw uint8) bool {
		d := 2 + int(dRaw%4)
		rows := make([][]float64, d)
		for i := range rows {
			rows[i] = make([]float64, d)
			sum := 0.0
			for j := range rows[i] {
				v := r.Float64() + 0.01
				rows[i][j] = v
				sum += v
			}
			for j := range rows[i] {
				rows[i][j] /= sum
			}
		}
		n, err := FromRows(rows)
		if err != nil {
			return false
		}
		up := n.UpperDelta()
		lo := n.LowerDelta()
		if lo > up+1e-12 {
			return false
		}
		if !n.IsUpperBounded(up, 1e-9) || !n.IsLowerBounded(lo, 1e-9) {
			return false
		}
		if up > 1e-6 && n.IsUpperBounded(up*0.9, 1e-12) {
			return false
		}
		if lo > 1e-6 && n.IsLowerBounded(lo*1.1+1e-9, 1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
