package rng

import (
	"math"
	"testing"
)

// TestMultinomialDistMatchesStream pins the bit-identity contract: for the
// same (n, probs) and the same stream state, MultinomialDist.Sample must
// produce exactly the draws — and consume exactly the randomness — of
// Stream.Multinomial. The cases sweep the regimes that matter: small and
// large n (inversion vs BTRS first components), zero-probability entries,
// unnormalized weights, near-total mass in a prefix (numerical exhaustion),
// and k = 1.
func TestMultinomialDistMatchesStream(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		probs []float64
	}{
		{"uniform4 small", 8, []float64{1, 1, 1, 1}},
		{"uniform4 large", 5000, []float64{0.25, 0.25, 0.25, 0.25}},
		{"skewed", 64, []float64{0.9, 0.05, 0.04, 0.01}},
		{"zero entries", 32, []float64{0, 2, 0, 1}},
		{"unnormalized", 100, []float64{3, 1, 5, 2, 9}},
		{"mass in prefix", 40, []float64{1, 1e-300, 1e-300, 1e-300}},
		{"single component", 17, []float64{4}},
		{"two components", 1000, []float64{0.7, 0.3}},
		{"n zero", 0, []float64{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d MultinomialDist
			d.Init(tc.n, tc.probs)
			if d.N() != tc.n || d.K() != len(tc.probs) {
				t.Fatalf("N/K = %d/%d, want %d/%d", d.N(), d.K(), tc.n, len(tc.probs))
			}
			a := New(12345)
			b := New(12345)
			wantOut := make([]int, len(tc.probs))
			gotOut := make([]int, len(tc.probs))
			for draw := 0; draw < 200; draw++ {
				a.Multinomial(tc.n, tc.probs, wantOut)
				d.Sample(b, gotOut)
				for j := range wantOut {
					if gotOut[j] != wantOut[j] {
						t.Fatalf("draw %d component %d: got %d, want %d (got %v want %v)",
							draw, j, gotOut[j], wantOut[j], gotOut, wantOut)
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("draw %d: stream states diverged — the cached sampler consumed different randomness", draw)
				}
			}
		})
	}
}

// TestMultinomialDistReInit checks that re-initializing with the same
// component count reuses the buffer and that a cached sampler tracks a
// changing law correctly (the per-round usage pattern of the vec engine).
func TestMultinomialDistReInit(t *testing.T) {
	var d MultinomialDist
	laws := [][]float64{
		{0.4, 0.3, 0.2, 0.1},
		{0.1, 0.1, 0.1, 0.7},
		{1, 0, 0, 1},
	}
	a := New(99)
	b := New(99)
	out := make([]int, 4)
	want := make([]int, 4)
	for round := 0; round < 50; round++ {
		probs := laws[round%len(laws)]
		d.Init(20, probs)
		a.Multinomial(20, probs, want)
		d.Sample(b, out)
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("round %d: got %v, want %v", round, out, want)
			}
		}
	}
}

// TestMultinomialDistSumsToN: every draw partitions exactly n trials.
func TestMultinomialDistSumsToN(t *testing.T) {
	var d MultinomialDist
	d.Init(137, []float64{0.5, 0.2, 0.2, 0.1})
	r := New(7)
	out := make([]int, 4)
	for i := 0; i < 500; i++ {
		d.Sample(r, out)
		sum := 0
		for _, c := range out {
			if c < 0 {
				t.Fatalf("negative count in %v", out)
			}
			sum += c
		}
		if sum != 137 {
			t.Fatalf("draw sums to %d, want 137 (%v)", sum, out)
		}
	}
}

// TestMultinomialDistMarginals: component marginals are Binomial(n, pᵢ);
// check the empirical means against a 5σ band.
func TestMultinomialDistMarginals(t *testing.T) {
	const n, trials = 60, 4000
	probs := []float64{0.5, 0.25, 0.15, 0.1}
	var d MultinomialDist
	d.Init(n, probs)
	r := New(31337)
	out := make([]int, len(probs))
	sums := make([]float64, len(probs))
	for i := 0; i < trials; i++ {
		d.Sample(r, out)
		for j, c := range out {
			sums[j] += float64(c)
		}
	}
	for j, p := range probs {
		mean := sums[j] / trials
		want := float64(n) * p
		se := math.Sqrt(float64(n)*p*(1-p)) / math.Sqrt(trials)
		if math.Abs(mean-want) > 5*se {
			t.Errorf("component %d mean %.3f, want %.3f ± %.3f", j, mean, want, 5*se)
		}
	}
}

// TestMultinomialDistPanics: invalid laws panic with the Stream.Multinomial
// contract.
func TestMultinomialDistPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	var d MultinomialDist
	mustPanic("negative prob", func() { d.Init(10, []float64{1, -1}) })
	mustPanic("NaN prob", func() { d.Init(10, []float64{1, math.NaN()}) })
	mustPanic("zero total", func() { d.Init(10, []float64{0, 0}) })
	mustPanic("out length", func() {
		d.Init(10, []float64{1, 1})
		d.Sample(New(1), make([]int, 3))
	})
}

// TestMultinomialDistPrecomputeCond pins the bit-identity contract of the
// conditional-sampler cache: Sample after PrecomputeCond must produce
// exactly the draws, and consume exactly the randomness, of the uncached
// path — the cached samplers are built with the same arguments the uncached
// path hands to Stream.Binomial.
func TestMultinomialDistPrecomputeCond(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		probs []float64
	}{
		{"uniform4", 8, []float64{1, 1, 1, 1}},
		{"skewed5", 64, []float64{0.9, 0.05, 0.02, 0.02, 0.01}},
		{"zero entries", 32, []float64{0, 2, 0, 1}},
		{"mass in prefix", 40, []float64{1, 1e-300, 1e-300, 1e-300}},
		{"two components", 100, []float64{0.7, 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var plain, cached MultinomialDist
			plain.Init(tc.n, tc.probs)
			cached.Init(tc.n, tc.probs)
			cached.PrecomputeCond()
			a := New(4242)
			b := New(4242)
			want := make([]int, len(tc.probs))
			got := make([]int, len(tc.probs))
			for draw := 0; draw < 200; draw++ {
				plain.Sample(a, want)
				cached.Sample(b, got)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("draw %d: got %v, want %v", draw, got, want)
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("draw %d: stream states diverged", draw)
				}
			}
		})
	}
}

// TestMultinomialDistJointLaw checks that the joint alias table realizes the
// same distribution as the conditional decomposition: exact outcome
// frequencies against the multinomial pmf with a chi-square-style 5σ bound
// per cell on a small support, plus sum and refusal behavior.
func TestMultinomialDistJointLaw(t *testing.T) {
	const n, trials = 4, 200000
	probs := []float64{0.5, 0.3, 0.2}
	var d MultinomialDist
	d.Init(n, probs)
	if !d.PrecomputeJoint(4096) {
		t.Fatal("PrecomputeJoint refused a 15-outcome support")
	}
	r := New(2026)
	out := make([]int, 3)
	freq := map[[3]int]int{}
	for i := 0; i < trials; i++ {
		d.SampleJoint(r, out)
		sum := 0
		for _, c := range out {
			sum += c
		}
		if sum != n {
			t.Fatalf("joint draw sums to %d: %v", sum, out)
		}
		freq[[3]int{out[0], out[1], out[2]}]++
	}
	fact := []float64{1, 1, 2, 6, 24}
	for c0 := 0; c0 <= n; c0++ {
		for c1 := 0; c0+c1 <= n; c1++ {
			c2 := n - c0 - c1
			p := fact[n] / (fact[c0] * fact[c1] * fact[c2]) *
				math.Pow(probs[0], float64(c0)) * math.Pow(probs[1], float64(c1)) * math.Pow(probs[2], float64(c2))
			want := p * trials
			se := math.Sqrt(p * (1 - p) * trials)
			got := float64(freq[[3]int{c0, c1, c2}])
			if math.Abs(got-want) > 5*se+1 {
				t.Errorf("outcome (%d,%d,%d): %d draws, want %.1f ± %.1f", c0, c1, c2, freq[[3]int{c0, c1, c2}], want, 5*se)
			}
		}
	}
}

// TestMultinomialDistJointFallback: SampleJoint without a built table (or
// after a refusal) must fall back to the bit-identical conditional path.
func TestMultinomialDistJointFallback(t *testing.T) {
	probs := []float64{1, 1, 1, 1}
	var plain, joint MultinomialDist
	plain.Init(2000, probs)
	joint.Init(2000, probs)
	if joint.PrecomputeJoint(64) {
		t.Fatal("PrecomputeJoint accepted a support beyond its cap")
	}
	a := New(5)
	b := New(5)
	want := make([]int, 4)
	got := make([]int, 4)
	for draw := 0; draw < 50; draw++ {
		plain.Sample(a, want)
		joint.SampleJoint(b, got)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("draw %d: got %v, want %v", draw, got, want)
			}
		}
	}
	// Re-Init invalidates a previously built table.
	joint.Init(4, probs)
	if !joint.PrecomputeJoint(4096) {
		t.Fatal("PrecomputeJoint refused a tiny support")
	}
	joint.Init(4, probs)
	c := New(9)
	d2 := New(9)
	plain.Init(4, probs)
	for draw := 0; draw < 50; draw++ {
		plain.Sample(c, want)
		joint.SampleJoint(d2, got)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("post-reinit draw %d: got %v, want %v", draw, got, want)
			}
		}
	}
}

// recursiveJoint is the recursive composition walk PrecomputeJoint's
// odometer replaced: the support and relative pmf weights in its order,
// with its multiplication order.
func recursiveJoint(n int, probs []float64) (vecs []uint8, w []float64) {
	k := len(probs)
	invFact := make([]float64, n+1)
	invFact[0] = 1
	for c := 1; c <= n; c++ {
		invFact[c] = invFact[c-1] / float64(c)
	}
	cur := make([]uint8, k)
	var walk func(comp, left int, weight float64)
	walk = func(comp, left int, weight float64) {
		if comp == k-1 {
			cur[comp] = uint8(left)
			vecs = append(vecs, cur...)
			w = append(w, weight*pow(probs[comp], left)*invFact[left])
			return
		}
		wt := weight
		for c := 0; c <= left; c++ {
			cur[comp] = uint8(c)
			walk(comp+1, left-c, wt*invFact[c])
			wt *= probs[comp]
		}
	}
	walk(0, n, 1)
	return vecs, w
}

// TestPrecomputeJointMatchesRecursiveWalk: the joint support and weights
// are bit-identical to the recursive walk's, so the alias table, and every
// k-ary complete-graph trajectory, is unchanged.
func TestPrecomputeJointMatchesRecursiveWalk(t *testing.T) {
	cases := []struct {
		n     int
		probs []float64
	}{
		{0, []float64{0.3, 0.7}},
		{1, []float64{0.3, 0.7}},
		{8, []float64{0.1, 0.2, 0.3, 0.4}},
		{8, []float64{0.97, 0.01, 0.01, 0.01}},
		{5, []float64{0.2, 0, 0.5, 0.3}},
		{12, []float64{0.25, 0.25, 0.25, 0.25, 1e-9}},
		{40, []float64{0.6, 0.4}},
		{3, []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.5}},
	}
	var d MultinomialDist
	for _, c := range cases {
		d.Init(c.n, c.probs)
		if !d.PrecomputeJoint(1 << 16) {
			t.Fatalf("n=%d k=%d: PrecomputeJoint refused", c.n, len(c.probs))
		}
		vecs, w := recursiveJoint(c.n, d.probs)
		if len(d.jointVecs) != len(vecs) || len(d.jointW) != len(w) {
			t.Fatalf("n=%d k=%d: support %d, want %d", c.n, len(c.probs), len(d.jointW), len(w))
		}
		for i := range vecs {
			if d.jointVecs[i] != vecs[i] {
				t.Fatalf("n=%d k=%d: support byte %d is %d, want %d", c.n, len(c.probs), i, d.jointVecs[i], vecs[i])
			}
		}
		for i := range w {
			if math.Float64bits(d.jointW[i]) != math.Float64bits(w[i]) {
				t.Fatalf("n=%d k=%d: weight %d is %v, want %v", c.n, len(c.probs), i, d.jointW[i], w[i])
			}
		}
	}
}

// TestPrecomputeJointAllocs: a rebuild with the same (n, k) reuses every
// buffer, so the k-ary engine's once-per-round rebuild allocates nothing.
func TestPrecomputeJointAllocs(t *testing.T) {
	var d MultinomialDist
	probs := []float64{0.4, 0.3, 0.2, 0.1}
	d.Init(8, probs)
	d.PrecomputeJoint(4096)
	if allocs := testing.AllocsPerRun(50, func() {
		probs[0], probs[1] = probs[1], probs[0]
		d.Init(8, probs)
		if !d.PrecomputeJoint(4096) {
			t.Fatal("PrecomputeJoint refused")
		}
	}); allocs != 0 {
		t.Fatalf("Init+PrecomputeJoint allocates %v per call, want 0", allocs)
	}
}
