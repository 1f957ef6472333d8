package rng

import "math"

// BinomialDist is a Binomial(n, p) sampler with the per-distribution setup
// hoisted out of the sampling loop. Stream.Binomial pays the full constant
// computation — a Pow for the inversion regime, two Lgamma calls and a
// handful of divisions for BTRS — on every call; the vectorized engine
// draws from the same (n, p) once per agent per round, so Init once and
// Sample n times amortizes that setup across the whole population.
//
// Sample consumes the stream exactly like Stream.Binomial for the same
// (n, p): Stream.Binomial is implemented on top of this type, so the two
// are bit-identical by construction. Sample does not mutate the
// distribution, so one initialized BinomialDist may be shared by
// concurrent workers, each sampling with its own stream.
type BinomialDist struct {
	n       int
	kind    binKind
	flip    bool // sampling Binomial(n, 1-p); Sample returns n - draw
	guideOK bool // guide holds this Init's table (PrecomputeGuide)

	// Inversion constants (kind == binInversion).
	s  float64 // p/q
	f0 float64 // (1-p)^n = P(X = 0)

	// guide[b] is the inversion result shared by every uniform whose top
	// guideBits bits are b, or guideMiss when the bucket straddles a step
	// of the CDF walk; built by PrecomputeGuide, read when guideOK.
	guide [1 << guideBits]uint8

	// BTRS constants (kind == binBTRS), Hörmann's transformed rejection
	// with squeeze; names follow the paper.
	b, a, c, vr, alpha, lpq, m, h float64
}

type binKind uint8

const (
	binConstZero binKind = iota // degenerate: always 0 (before flip)
	binConstN                   // degenerate: always n (before flip)
	binInversion
	binBTRS
)

// Init prepares the sampler for Binomial(n, p). It panics on n < 0, like
// Stream.Binomial. Re-Init on the same value is allocation-free.
func (d *BinomialDist) Init(n int, p float64) {
	if n < 0 {
		panic("rng: Binomial with n < 0")
	}
	d.n = n
	d.flip = false
	d.guideOK = false
	switch {
	case n == 0 || p <= 0:
		d.kind = binConstZero
		return
	case p >= 1:
		d.kind = binConstN
		return
	case p > 0.5:
		d.flip = true
		p = 1 - p
		if p <= 0 { // 1-p underflowed to 0: effectively p == 1
			d.kind = binConstZero
			return
		}
	}
	fn := float64(n)
	if fn*p < btrsThreshold {
		d.kind = binInversion
		q := 1 - p
		d.s = p / q
		d.f0 = math.Pow(q, fn)
		return
	}
	d.kind = binBTRS
	spq := math.Sqrt(fn * p * (1 - p))
	d.b = 1.15 + 2.53*spq
	d.a = -0.0873 + 0.0248*d.b + 0.01*p
	d.c = fn*p + 0.5
	d.vr = 0.92 - 4.2/d.b
	d.alpha = (2.83 + 5.1/d.b) * spq
	d.lpq = math.Log(p / (1 - p))
	d.m = math.Floor((fn + 1) * p)
	hm, _ := math.Lgamma(d.m + 1)
	hnm, _ := math.Lgamma(fn - d.m + 1)
	d.h = hm + hnm
}

// N returns the trial count the sampler was initialized with.
func (d *BinomialDist) N() int { return d.n }

// Sample draws one variate using r's randomness. It is safe for concurrent
// use with distinct streams. A built guide answers the draw here, from the
// uniform's bucket, and falls back to the walk on that same uniform only
// when the bucket straddles a step of the CDF.
func (d *BinomialDist) Sample(r *Stream) int {
	var k int
	switch {
	case d.guideOK:
		x := r.Uint64() >> 11
		if k = int(d.guide[x>>guideShift]); k == guideMiss {
			k = d.walk(x)
		}
	case d.kind == binInversion:
		k = d.walk(r.Uint64() >> 11)
	case d.kind == binBTRS:
		k = d.sampleBTRS(r)
	case d.kind == binConstN:
		k = d.n
	default: // binConstZero draws 0
	}
	if d.flip {
		return d.n - k
	}
	return k
}

// Guide-table geometry: the top guideBits bits of the 53-bit uniform pick
// one of 1<<guideBits equal buckets of [0, 1). guideMiss marks a bucket
// that needs the walk, so a guide holds results up to maxGuideN. The build
// walks the boundaries of the 1<<coarseBits coarse buckets first; each
// coarse bucket holds four fine ones.
const (
	coarseBits = 6
	guideBits  = coarseBits + 2
	guideShift = 53 - guideBits
	guideMiss  = 255
	maxGuideN  = guideMiss - 1
)

// PrecomputeGuide builds the guide table of an inversion-regime sampler
// (n ≤ 254), after which Sample answers most draws with one table load
// instead of the CDF walk. It is exact: Sample returns what the walk
// returns for every uniform, consuming the stream identically. The walk
// maps u to the first k with u_k ≤ f_k (or n), where u_0 = u and
// u_{k+1} = fl(u_k − f_k); rounded subtraction of a fixed f_k never
// decreases as u grows, so neither does the result. Every uniform in a
// bucket therefore walks to the bucket's k whenever its two boundaries
// walk to the same k, and only those buckets are stored. By the same
// argument a coarse bucket whose two boundaries walk to one k holds only
// fine buckets of that k, so the build walks the 65 coarse boundaries and
// then, inside each coarse bucket that straddles a step (at most n of
// them), its middle boundary and the quarter boundary of each half whose
// ends differ: at most 65 + 3n walks instead of all 257 fine boundaries,
// with the same table as a result. It is worth it when the sampler serves many draws (a
// round's shared law); callers that draw a few times per Init skip it. A no-op for every other kind; it allocates nothing. Call it
// between Init and sharing the sampler with concurrent workers: Sample
// never writes the table.
func (d *BinomialDist) PrecomputeGuide() {
	if d.kind != binInversion || d.n > maxGuideN {
		return
	}
	// The pmf terms the walk would compute, with its own recurrence and
	// evaluation order, so the boundary walks below are the walk itself.
	var f [maxGuideN + 1]float64
	f[0] = d.f0
	for k := 1; k <= d.n; k++ {
		f[k] = f[k-1] * (d.s * float64(d.n-k+1) / float64(k))
	}
	// boundary returns the walk's result at the fine boundary b·2^-guideBits;
	// b = 1<<guideBits is 1.0, the first uniform past the last bucket.
	boundary := func(b int) int {
		u := float64(b) * (1.0 / (1 << guideBits))
		k := 0
		for u > f[k] && k < d.n {
			u -= f[k]
			k++
		}
		return k
	}
	lo := boundary(0)
	for c := 0; c < len(d.guide); c += 4 {
		hi := boundary(c + 4)
		if lo == hi {
			// Written out: a loop over the four bytes costs more than the
			// coarse walk.
			k := uint8(lo)
			d.guide[c], d.guide[c+1], d.guide[c+2], d.guide[c+3] = k, k, k, k
			continue
		}
		// A coarse bucket that straddles a step: walk its middle boundary,
		// then the quarter boundary of each half whose ends still differ.
		// e[j] is the walk's result at fine boundary c+j.
		e := [5]int{lo, lo, boundary(c + 2), hi, hi}
		if e[0] != e[2] {
			e[1] = boundary(c + 1)
		}
		if e[2] != e[4] {
			e[3] = boundary(c + 3)
		}
		for j := 0; j < 4; j++ {
			if e[j] == e[j+1] {
				d.guide[c+j] = uint8(e[j])
			} else {
				d.guide[c+j] = guideMiss
			}
		}
		lo = hi
	}
	d.guideOK = true
}

// walk is the inversion draw of the uniform x·2⁻⁵³ (x < 2⁵³, formed
// exactly as Stream.Float64 forms it): it walks the CDF from k = 0. The
// recurrence and float evaluation order match Stream.binomialInversion's
// historical implementation exactly.
func (d *BinomialDist) walk(x uint64) int {
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

// sampleBTRS runs the BTRS acceptance loop against the precomputed
// constants; the bulk of the mass exits through the squeeze with a single
// uniform and no Lgamma evaluation.
func (d *BinomialDist) sampleBTRS(r *Stream) int {
	fn := float64(d.n)
	for {
		v := r.Float64()
		if v <= 0.86*d.vr {
			u := v/d.vr - 0.43
			return int(math.Floor((2*d.a/(0.5-math.Abs(u))+d.b)*u + d.c))
		}
		var u float64
		if v >= d.vr {
			u = r.Float64() - 0.5
		} else {
			u = v/d.vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = d.vr * r.Float64()
		}
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*d.a/us+d.b)*u + d.c)
		if k < 0 || k > fn {
			continue
		}
		v = v * d.alpha / (d.a/(us*us) + d.b)
		lk, _ := math.Lgamma(k + 1)
		lnk, _ := math.Lgamma(fn - k + 1)
		if math.Log(v) <= d.h-lk-lnk+(k-d.m)*d.lpq {
			return int(k)
		}
	}
}
