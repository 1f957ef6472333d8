package rng

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestBinomialDistMatchesStream pins the contract the vectorized engine
// depends on: for any (n, p), BinomialDist.Sample must return the same
// values AND consume the same number of stream draws as Stream.Binomial.
func TestBinomialDistMatchesStream(t *testing.T) {
	ns := []int{0, 1, 2, 7, 29, 64, 300, 5000}
	ps := []float64{-0.5, 0, 1e-9, 0.01, 0.2, 0.4999, 0.5, 0.5001, 0.8, 0.999, 1, 1.5}
	for _, n := range ns {
		for _, p := range ps {
			a := New(DeriveSeed(42, uint64(n)))
			b := New(DeriveSeed(42, uint64(n)))
			var d BinomialDist
			d.Init(n, p)
			for i := 0; i < 200; i++ {
				want := a.Binomial(n, p)
				got := d.Sample(b)
				if got != want {
					t.Fatalf("n=%d p=%v draw %d: dist %d, stream %d", n, p, i, got, want)
				}
			}
			// Same draw count: the streams must still be in lockstep.
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d p=%v: streams desynchronized after 200 draws", n, p)
			}
		}
	}
}

// TestBinomialDistReuse checks Init is idempotent and re-Init on new
// parameters fully resets the sampler (no state leaks across Init calls,
// including the degenerate and flipped kinds).
func TestBinomialDistReuse(t *testing.T) {
	var d BinomialDist
	r := New(7)
	params := []struct {
		n int
		p float64
	}{{100, 0.9}, {0, 0.5}, {50, 0.3}, {10, 0}, {2000, 0.45}, {5, 1}}
	for _, pr := range params {
		d.Init(pr.n, pr.p)
		ref := New(DeriveSeed(9, uint64(pr.n)))
		chk := New(DeriveSeed(9, uint64(pr.n)))
		for i := 0; i < 50; i++ {
			if got, want := d.Sample(chk), ref.Binomial(pr.n, pr.p); got != want {
				t.Fatalf("after re-Init(%d, %v): dist %d, stream %d", pr.n, pr.p, got, want)
			}
		}
		_ = r
	}
	if d.N() != 5 {
		t.Fatalf("N() = %d after last Init, want 5", d.N())
	}
}

// TestBinomialDistConcurrentSharing: one initialized dist, many streams.
// Sample must not mutate the dist, so concurrent samplers with private
// streams must each reproduce their serial trajectories, in the BTRS
// regime and through a built guide table. Run with -race.
func TestBinomialDistConcurrentSharing(t *testing.T) {
	var btrs, guided BinomialDist
	btrs.Init(1000, 0.37)
	guided.Init(32, 0.3)
	guided.PrecomputeGuide()
	for _, d := range []*BinomialDist{&btrs, &guided} {
		testConcurrentSharing(t, d)
	}
}

func testConcurrentSharing(t *testing.T, d *BinomialDist) {
	const workers = 8
	want := make([][]int, workers)
	for w := range want {
		s := New(DeriveSeed(3, uint64(w)))
		want[w] = make([]int, 500)
		for i := range want[w] {
			want[w][i] = d.Sample(s)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(DeriveSeed(3, uint64(w)))
			for i := 0; i < 500; i++ {
				if got := d.Sample(s); got != want[w][i] {
					t.Errorf("worker %d draw %d: %d, want %d", w, i, got, want[w][i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBinomialDistMoments: mean and variance sanity for both regimes,
// independent of the stream-parity pin above.
func TestBinomialDistMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{{40, 0.1}, {500, 0.25}, {500, 0.75}}
	r := New(123)
	for _, c := range cases {
		var d BinomialDist
		d.Init(c.n, c.p)
		const trials = 20000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			v := float64(d.Sample(r))
			sum += v
			sumsq += v * v
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-wantMean) > 5*sd/math.Sqrt(trials) {
			t.Errorf("n=%d p=%v: mean %.3f, want %.3f", c.n, c.p, mean, wantMean)
		}
		variance := sumsq/trials - mean*mean
		if math.Abs(variance-sd*sd) > 0.1*sd*sd+1 {
			t.Errorf("n=%d p=%v: variance %.3f, want %.3f", c.n, c.p, variance, sd*sd)
		}
	}
}

// guideParams is the (n, p) grid of the guide tests: n = 1…80 against tiny
// p, n·p near the inversion/BTRS threshold of 30, both sides of 0.5, and
// p near 1 (the flipped regime).
func guideParams(yield func(n int, p float64)) {
	for n := 1; n <= 80; n++ {
		ps := []float64{1e-9, 1e-4, 0.01, 0.07, 0.108, 0.2, 0.3, 0.45, 0.4999, 0.5, 0.5001, 0.7, 0.9, 1 - 1e-4,
			29.9 / float64(n), 30.1 / float64(n)}
		for _, p := range ps {
			if p < 1 {
				yield(n, p)
			}
		}
	}
}

// refWalk is the inversion walk on the uniform x·2⁻⁵³, the historical
// recurrence the guide must reproduce (before any flip).
func refWalk(d *BinomialDist, x uint64) int {
	f := d.f0
	u := float64(x) * 0x1p-53
	k := 0
	for u > f && k < d.n {
		u -= f
		k++
		f *= d.s * float64(d.n-k+1) / float64(k)
	}
	return k
}

// TestBinomialGuideExact checks every stored guide entry against the walk
// at its bucket's first and last uniform and at random uniforms inside it;
// the walk is monotone in the uniform, so those pin the whole bucket.
func TestBinomialGuideExact(t *testing.T) {
	r := New(2024)
	guideParams(func(n int, p float64) {
		var d BinomialDist
		d.Init(n, p)
		d.PrecomputeGuide()
		if d.kind != binInversion {
			if d.guideOK {
				t.Fatalf("n=%d p=%v: guide built for sampler kind %d", n, p, d.kind)
			}
			return
		}
		if !d.guideOK {
			t.Fatalf("n=%d p=%v: no guide for an inversion sampler", n, p)
		}
		hits := 0
		for b, k := range d.guide {
			if k == guideMiss {
				continue
			}
			hits++
			first := uint64(b) << guideShift
			last := first + 1<<guideShift - 1
			xs := []uint64{first, last}
			for i := 0; i < 8; i++ {
				xs = append(xs, first+r.Uint64()>>(64-guideShift))
			}
			for _, x := range xs {
				if got := refWalk(&d, x); got != int(k) {
					t.Fatalf("n=%d p=%v bucket %d: guide %d, walk at x=%#x gives %d", n, p, b, k, x, got)
				}
			}
		}
		if hits == 0 {
			t.Fatalf("n=%d p=%v: every bucket needs the walk", n, p)
		}
	})
}

// TestBinomialGuideRefinedBuild compares the guide PrecomputeGuide builds
// from coarse boundaries with the plain build that walks all 257 fine
// boundaries, bucket for bucket, over TestBinomialGuideExact's grid.
func TestBinomialGuideRefinedBuild(t *testing.T) {
	guideParams(func(n int, p float64) {
		var d BinomialDist
		d.Init(n, p)
		d.PrecomputeGuide()
		if !d.guideOK {
			return
		}
		lo := refWalk(&d, 0)
		for b, got := range d.guide {
			hi := refWalk(&d, uint64(b+1)<<guideShift)
			want := uint8(guideMiss)
			if lo == hi {
				want = uint8(lo)
			}
			if got != want {
				t.Fatalf("n=%d p=%v bucket %d: refined build %d, plain build %d", n, p, b, got, want)
			}
			lo = hi
		}
	})
}

// TestBinomialGuideMatchesStream: a sampler with its guide built draws
// exactly what Stream.Binomial draws, consuming the stream in lockstep.
func TestBinomialGuideMatchesStream(t *testing.T) {
	draws := 20000
	if testing.Short() {
		draws = 2000
	}
	guideParams(func(n int, p float64) {
		a := New(DeriveSeed(77, uint64(n)))
		b := New(DeriveSeed(77, uint64(n)))
		var d BinomialDist
		d.Init(n, p)
		d.PrecomputeGuide()
		for i := 0; i < draws; i++ {
			if got, want := d.Sample(b), a.Binomial(n, p); got != want {
				t.Fatalf("n=%d p=%v draw %d: guided %d, stream %d", n, p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d p=%v: streams desynchronized", n, p)
		}
	})
}

// TestBinomialGuideStaleAfterInit: re-Init without a new build must not
// read the previous law's guide, whatever kind the new law has.
func TestBinomialGuideStaleAfterInit(t *testing.T) {
	var d BinomialDist
	for _, next := range []struct {
		n int
		p float64
	}{{8, 0.05}, {8, 0.95}, {32, 0.07}, {200, 0.4}, {8, 0}, {3, 0.5}} {
		d.Init(8, 0.5)
		d.PrecomputeGuide()
		d.Init(next.n, next.p)
		if d.guideOK {
			t.Fatalf("Init(%d, %v) kept the previous guide", next.n, next.p)
		}
		a := New(DeriveSeed(5, uint64(next.n)))
		b := New(DeriveSeed(5, uint64(next.n)))
		for i := 0; i < 2000; i++ {
			if got, want := d.Sample(b), a.Binomial(next.n, next.p); got != want {
				t.Fatalf("after re-Init(%d, %v), draw %d: %d, stream %d", next.n, next.p, i, got, want)
			}
		}
	}
}

// TestPrecomputeGuideAllocs: building the guide allocates nothing, so the
// engine may rebuild it every round.
func TestPrecomputeGuideAllocs(t *testing.T) {
	var d BinomialDist
	if allocs := testing.AllocsPerRun(100, func() {
		d.Init(32, 0.07)
		d.PrecomputeGuide()
	}); allocs != 0 {
		t.Fatalf("Init+PrecomputeGuide allocates %v per call, want 0", allocs)
	}
}

var benchDraw int

// BenchmarkBinomialDist times one Sample on a shared sampler at the round
// laws the engine meets, walking the CDF and with the guide built.
func BenchmarkBinomialDist(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{8, 0.108}, {8, 0.5}, {32, 0.07}, {16, 0.3}} {
		for _, guide := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/p=%v/walk", c.n, c.p)
			if guide {
				name = fmt.Sprintf("n=%d/p=%v/guide", c.n, c.p)
			}
			b.Run(name, func(b *testing.B) {
				var d BinomialDist
				d.Init(c.n, c.p)
				if guide {
					d.PrecomputeGuide()
				}
				r := New(1)
				for i := 0; i < b.N; i++ {
					benchDraw += d.Sample(r)
				}
			})
		}
	}
}

// BenchmarkBinomialGuideBuild times the per-round cost the engine adds:
// Init plus PrecomputeGuide.
func BenchmarkBinomialGuideBuild(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{8, 0.108}, {8, 0.5}, {32, 0.07}, {16, 0.3}} {
		b.Run(fmt.Sprintf("n=%d/p=%v", c.n, c.p), func(b *testing.B) {
			var d BinomialDist
			for i := 0; i < b.N; i++ {
				d.Init(c.n, c.p)
				d.PrecomputeGuide()
			}
		})
	}
}
