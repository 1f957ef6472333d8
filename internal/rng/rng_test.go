package rng

import (
	"math"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64 implementation
	// (Vigna, 2015) seeded with 0: first three outputs.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	state := uint64(0)
	for i, w := range want {
		var v uint64
		v, state = SplitMix64(state)
		if v != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, v, w)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d equal outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Derived streams for adjacent ids must not be correlated; check that
	// their first outputs differ and a simple bit-balance test passes.
	seen := make(map[uint64]bool)
	for id := uint64(0); id < 1000; id++ {
		v := New(DeriveSeed(42, id)).Uint64()
		if seen[v] {
			t.Fatalf("duplicate first output for derived stream id %d", id)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(9)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(12)
	const p = 0.3
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestCoinBalance(t *testing.T) {
	r := New(13)
	const n = 100000
	ones := 0
	for i := 0; i < n; i++ {
		c := r.Coin()
		if c != 0 && c != 1 {
			t.Fatalf("Coin returned %d", c)
		}
		ones += c
	}
	if math.Abs(float64(ones)/n-0.5) > 0.01 {
		t.Fatalf("Coin balance = %v", float64(ones)/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(14)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(15)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", xs)
	}
}

// binomPMF computes the exact Binomial(n,p) PMF at k via log-gamma.
func binomPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// chiSquareBinomial draws samples from Binomial(n,p) and performs a
// chi-square goodness-of-fit test against the exact PMF, pooling tail bins
// with expected count below 5. Returns the chi-square statistic and the
// degrees of freedom.
func chiSquareBinomial(t *testing.T, r *Stream, n int, p float64, draws int) (float64, int) {
	t.Helper()
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d, %v) = %d out of range", n, p, k)
		}
		counts[k]++
	}
	// Pool bins so each expected count >= 5.
	var chi float64
	df := -1 // subtract one for the sum constraint
	expAcc, obsAcc := 0.0, 0.0
	for k := 0; k <= n; k++ {
		expAcc += binomPMF(n, p, k) * float64(draws)
		obsAcc += float64(counts[k])
		if expAcc >= 5 {
			d := obsAcc - expAcc
			chi += d * d / expAcc
			df++
			expAcc, obsAcc = 0, 0
		}
	}
	if expAcc > 0 {
		d := obsAcc - expAcc
		chi += d * d / math.Max(expAcc, 1e-9)
		df++
	}
	return chi, df
}

func TestBinomialInversionDistribution(t *testing.T) {
	r := New(16)
	// np = 4 < threshold: exercises the inversion path.
	chi, df := chiSquareBinomial(t, r, 40, 0.1, 100000)
	// 99.99th percentile of chi-square with df dof is roughly df + 4*sqrt(2df) + 15.
	limit := float64(df) + 4*math.Sqrt(2*float64(df)) + 15
	if chi > limit {
		t.Fatalf("inversion chi-square = %v (df=%d, limit %v)", chi, df, limit)
	}
}

func TestBinomialBTRSDistribution(t *testing.T) {
	r := New(17)
	// np = 50 >= threshold: exercises the BTRS path.
	chi, df := chiSquareBinomial(t, r, 500, 0.1, 100000)
	limit := float64(df) + 4*math.Sqrt(2*float64(df)) + 15
	if chi > limit {
		t.Fatalf("BTRS chi-square = %v (df=%d, limit %v)", chi, df, limit)
	}
}

func TestBinomialBTRSLargeP(t *testing.T) {
	r := New(18)
	// p > 0.5 exercises the reflection path into BTRS.
	chi, df := chiSquareBinomial(t, r, 200, 0.7, 100000)
	limit := float64(df) + 4*math.Sqrt(2*float64(df)) + 15
	if chi > limit {
		t.Fatalf("reflected BTRS chi-square = %v (df=%d, limit %v)", chi, df, limit)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(19)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{100, 0.02}, {100, 0.5}, {10000, 0.01}, {10000, 0.37}, {7, 0.9},
	}
	r := New(20)
	for _, c := range cases {
		const draws = 50000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			k := float64(r.Binomial(c.n, c.p))
			sum += k
			sumsq += k * k
		}
		mean := sum / draws
		variance := sumsq/draws - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		// 6-sigma tolerance on the sample mean.
		tol := 6 * math.Sqrt(wantVar/draws)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Binomial(%d,%v): mean %v, want %v +/- %v", c.n, c.p, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+1 {
			t.Errorf("Binomial(%d,%v): variance %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialRangeProperty(t *testing.T) {
	r := New(21)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := float64(pRaw) / 65535
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialSumsToN(t *testing.T) {
	r := New(22)
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	out := make([]int, len(probs))
	for i := 0; i < 1000; i++ {
		r.Multinomial(100, probs, out)
		sum := 0
		for _, k := range out {
			if k < 0 {
				t.Fatalf("negative multinomial count: %v", out)
			}
			sum += k
		}
		if sum != 100 {
			t.Fatalf("multinomial counts sum to %d: %v", sum, out)
		}
	}
}

func TestMultinomialMarginals(t *testing.T) {
	r := New(23)
	probs := []float64{0.5, 0.25, 0.125, 0.125}
	out := make([]int, len(probs))
	sums := make([]float64, len(probs))
	const draws = 20000
	const n = 64
	for i := 0; i < draws; i++ {
		r.Multinomial(n, probs, out)
		for j, k := range out {
			sums[j] += float64(k)
		}
	}
	for j, p := range probs {
		mean := sums[j] / draws
		want := float64(n) * p
		tol := 6 * math.Sqrt(float64(n)*p*(1-p)/draws)
		if math.Abs(mean-want) > tol {
			t.Errorf("marginal %d: mean %v, want %v +/- %v", j, mean, want, tol)
		}
	}
}

func TestMultinomialUnnormalizedWeights(t *testing.T) {
	r := New(24)
	probs := []float64{2, 6} // i.e. 0.25, 0.75
	out := make([]int, 2)
	var first float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		r.Multinomial(20, probs, out)
		first += float64(out[0])
	}
	mean := first / draws
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("unnormalized multinomial marginal = %v, want ~5", mean)
	}
}

func TestMultinomialZeroWeightEntry(t *testing.T) {
	r := New(25)
	probs := []float64{0, 1, 0}
	out := make([]int, 3)
	r.Multinomial(50, probs, out)
	if out[0] != 0 || out[1] != 50 || out[2] != 0 {
		t.Fatalf("multinomial with point mass: %v", out)
	}
}

func TestMultinomialPanics(t *testing.T) {
	r := New(26)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		r.Multinomial(10, []float64{1, 1}, make([]int, 3))
	})
	mustPanic("negative prob", func() {
		r.Multinomial(10, []float64{1, -1}, make([]int, 2))
	})
	mustPanic("zero total", func() {
		r.Multinomial(10, []float64{0, 0}, make([]int, 2))
	})
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("NewAlias(nil) did not error")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("NewAlias(all-zero) did not error")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("NewAlias(negative) did not error")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Error("NewAlias(NaN) did not error")
	}
	if _, err := NewAlias([]float64{1, math.Inf(1)}); err == nil {
		t.Error("NewAlias(Inf) did not error")
	}
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	r := New(27)
	const draws = 200000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		sd := math.Sqrt(want * (1 - w/10))
		if math.Abs(float64(counts[i])-want) > 6*sd {
			t.Errorf("outcome %d: %d draws, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{3.7})
	if err != nil {
		t.Fatal(err)
	}
	r := New(28)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias sampled nonzero index")
		}
	}
}

func TestAliasPointMass(t *testing.T) {
	a, err := NewAlias([]float64{0, 0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := New(29)
	for i := 0; i < 1000; i++ {
		if got := a.Sample(r); got != 2 {
			t.Fatalf("point-mass alias sampled %d", got)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialInversion(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(100, 0.05)
	}
}

func BenchmarkBinomialBTRS(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(100000, 0.3)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	a, _ := NewAlias([]float64{1, 2, 3, 4})
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(r)
	}
}

// TestMultinomialMatchesBinomialMarginal: the first component of a
// 2-outcome multinomial must be distributed Binomial(n, p) — chi-square
// against the exact PMF.
func TestMultinomialMatchesBinomialMarginal(t *testing.T) {
	r := New(71)
	const n = 60
	const p = 0.3
	const draws = 60000
	probs := []float64{p, 1 - p}
	out := make([]int, 2)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r.Multinomial(n, probs, out)
		counts[out[0]]++
	}
	var chi float64
	df := -1
	expAcc, obsAcc := 0.0, 0.0
	for k := 0; k <= n; k++ {
		expAcc += binomPMF(n, p, k) * draws
		obsAcc += float64(counts[k])
		if expAcc >= 5 {
			d := obsAcc - expAcc
			chi += d * d / expAcc
			df++
			expAcc, obsAcc = 0, 0
		}
	}
	if expAcc > 0 {
		d := obsAcc - expAcc
		chi += d * d / expAcc
		df++
	}
	limit := float64(df) + 4*math.Sqrt(2*float64(df)) + 15
	if chi > limit {
		t.Fatalf("multinomial marginal chi-square = %v (df=%d, limit %v)", chi, df, limit)
	}
}

// refStep is the xoshiro256++ step written statement by statement, as the
// reference implementation states it; Stream.Uint64 computes it in closed
// form.
func refStep(s *[4]uint64) uint64 {
	rotl := func(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// TestUint64KnownAnswers pins Uint64 to xoshiro256++: the reference
// generator's first outputs from the state {1, 2, 3, 4}, and 10⁶ outputs
// of several seeded streams against the statement-by-statement step, with
// the state compared after every output.
func TestUint64KnownAnswers(t *testing.T) {
	var r Stream
	if err := r.SetState([4]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{41943041, 58720359, 3588806011781223, 3591011842654386, 9228616714210784205} {
		if got := r.Uint64(); got != want {
			t.Fatalf("output %d from state {1, 2, 3, 4} = %d, want %d", i, got, want)
		}
	}
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r := New(DeriveSeed(seed, 7))
		ref := r.State()
		for i := 0; i < draws; i++ {
			got, want := r.Uint64(), refStep(&ref)
			if got != want || r.State() != ref {
				t.Fatalf("seed %d output %d: %#x (state %x), reference %#x (state %x)", seed, i, got, r.State(), want, ref)
			}
		}
	}
}

// refMul64 is the 128-bit product by 32-bit halves, the arithmetic
// Uint64n used before it called math/bits.
func refMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// refUint64n is Lemire's multiply-shift draw on refStep and refMul64.
func refUint64n(s *[4]uint64, n uint64) uint64 {
	if n&(n-1) == 0 {
		return refStep(s) & (n - 1)
	}
	hi, lo := refMul64(refStep(s), n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			hi, lo = refMul64(refStep(s), n)
		}
	}
	return hi
}

// TestUint64nMatchesReference checks Uint64n, Intn and Alias.Sample against
// the reference draw, value by value and state by state. n = 2⁶³ + 1
// rejects about half of its first products, so the rejection loop runs.
func TestUint64nMatchesReference(t *testing.T) {
	const draws = 20_000
	for _, n := range []uint64{1, 2, 3, 7, 1<<32 + 1, 1<<63 + 1, math.MaxUint64} {
		r := New(DeriveSeed(11, n))
		ref := r.State()
		for i := 0; i < draws; i++ {
			got, want := r.Uint64n(n), refUint64n(&ref, n)
			if got != want || r.State() != ref {
				t.Fatalf("Uint64n(%d) draw %d: %d, reference %d (states equal: %v)", n, i, got, want, r.State() == ref)
			}
			if n > math.MaxInt {
				continue
			}
			got, want = uint64(r.Intn(int(n))), refUint64n(&ref, n)
			if got != want || r.State() != ref {
				t.Fatalf("Intn(%d) draw %d: %d, reference %d (states equal: %v)", n, i, got, want, r.State() == ref)
			}
		}
	}
	for _, k := range []int{1, 2, 3, 7, 64, 1000} {
		w := make([]float64, k)
		for i := range w {
			w[i] = float64(i%5 + 1)
		}
		a, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		r := New(DeriveSeed(12, uint64(k)))
		ref := r.State()
		for i := 0; i < draws; i++ {
			col := refUint64n(&ref, uint64(k))
			want := a.alias[col]
			if float64(refStep(&ref)>>11)*0x1p-53 < a.prob[col] {
				want = int(col)
			}
			if got := a.Sample(r); got != want || r.State() != ref {
				t.Fatalf("Alias.Sample over %d outcomes, draw %d: %d, reference %d (states equal: %v)", k, i, got, want, r.State() == ref)
			}
		}
	}
}

// TestIntendedInlining compiles the package with -gcflags=-m and fails
// unless the compiler reports the stream's per-draw helpers inlinable:
// the samplers' hot paths rely on Uint64 inlining into them.
func TestIntendedInlining(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlinable := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if _, fn, ok := strings.Cut(line, ": can inline "); ok {
			inlinable[strings.Fields(fn)[0]] = true
		}
	}
	for _, fn := range []string{"(*Stream).Uint64", "(*Stream).Float64", "(*Stream).Coin", "(*Stream).Intn"} {
		if !inlinable[fn] {
			t.Errorf("%s is not inlinable", fn)
		}
	}
}
