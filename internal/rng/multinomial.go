package rng

import "math"

// MultinomialDist is a Multinomial(n, probs) sampler with the
// per-distribution setup hoisted out of the sampling loop, the multinomial
// counterpart of BinomialDist. Stream.Multinomial re-derives the
// conditional-binomial decomposition — the running residual mass, every
// conditional probability, and the first component's full binomial setup —
// on each call; the vectorized k-ary engine draws from the same (n, probs)
// once per agent per round, so Init once and Sample n times amortizes that
// work across the whole population. The first conditional binomial (always
// Binomial(n, probs[0]/total), the most expensive setup) is fully cached;
// the later components depend on the running remainder and pay only a
// cached conditional probability each.
//
// Sample consumes the stream exactly like Stream.Multinomial for the same
// (n, probs): the conditional probabilities are precomputed with the same
// float operation sequence, and the per-component draws go through the same
// binomial sampler, so the two are bit-identical by construction (the
// equivalence test pins this). Sample does not mutate the distribution, so
// one initialized MultinomialDist may be shared by concurrent workers, each
// sampling with its own stream.
type MultinomialDist struct {
	n int
	k int
	// pcond[i] is the conditional probability of component i given the
	// remaining trials, probs[i]/restᵢ clamped to 1, for i < k-1. Entries at
	// and beyond the exhaustion point are never read.
	pcond []float64
	// first is the fully cached sampler for component 0; components i ≥ 1
	// sample Binomial(remaining, pcond[i]) with remaining data-dependent.
	first BinomialDist
	// exhaust is the first component index at which the residual mass
	// numerically ran out (rest ≤ 0 after subtracting probs[i]); k when it
	// never does. Sample zero-fills past it, mirroring Stream.Multinomial.
	exhaust int
	// probs holds the normalized component probabilities; PrecomputeJoint
	// needs them to evaluate the joint pmf.
	probs []float64
	// cond, filled by PrecomputeCond, caches Binomial(m, pcond[i]) at
	// cond[(i-1)*(n+1)+m] for the inner components i ∈ [1, k-2], so Sample
	// skips the per-draw binomial setup (one math.Pow each) entirely.
	cond   []BinomialDist
	condOK bool
	// joint, built by PrecomputeJoint, samples the entire count vector with
	// one alias draw; jointVecs stores the enumerated support flat, k bytes
	// per outcome.
	joint     Alias
	jointVecs []uint8
	jointW    []float64
	jointOK   bool
	// PrecomputeJoint's scratch, kept so a rebuild allocates nothing:
	// invFact[c] = 1/c!, and per component i of the composition walk its
	// count cur[i], its input weight in[i] and its running product run[i].
	invFact []float64
	cur     []uint8
	in, run []float64
}

// Init prepares the sampler for Multinomial(n, probs). The probabilities
// need not be normalized; they must be non-negative with a positive sum
// (same panics as Stream.Multinomial). Re-Init with the same component
// count is allocation-free.
func (d *MultinomialDist) Init(n int, probs []float64) {
	var total float64
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			panic("rng: Multinomial with negative or NaN probability")
		}
		total += p
	}
	if total <= 0 {
		panic("rng: Multinomial with zero total probability")
	}
	d.n = n
	d.k = len(probs)
	if cap(d.pcond) < d.k {
		d.pcond = make([]float64, d.k)
	}
	d.pcond = d.pcond[:d.k]
	if cap(d.probs) < d.k {
		d.probs = make([]float64, d.k)
	}
	d.probs = d.probs[:d.k]
	for i, p := range probs {
		d.probs[i] = p / total
	}
	d.exhaust = d.k
	d.condOK = false
	d.jointOK = false
	// Replicate Stream.Multinomial's residual-mass recurrence exactly: the
	// same division and subtraction order keeps every pcond[i] bitwise equal
	// to the value the one-shot path would compute.
	rest := total
	for i := 0; i < d.k-1; i++ {
		pi := probs[i] / rest
		if pi > 1 {
			pi = 1
		}
		d.pcond[i] = pi
		rest -= probs[i]
		if rest <= 0 {
			d.exhaust = i
			break
		}
	}
	if d.k > 1 {
		d.first.Init(n, d.pcond[0])
	}
}

// N returns the trial count the sampler was initialized with.
func (d *MultinomialDist) N() int { return d.n }

// K returns the component count the sampler was initialized with.
func (d *MultinomialDist) K() int { return d.k }

// Sample draws one count vector into out (which must have K entries) using
// r's randomness. It is safe for concurrent use with distinct streams.
func (d *MultinomialDist) Sample(r *Stream, out []int) {
	if len(out) != d.k {
		panic("rng: Multinomial output length mismatch")
	}
	remaining := d.n
	for i := 0; i < d.k; i++ {
		if remaining == 0 {
			out[i] = 0
			continue
		}
		if i == d.k-1 {
			out[i] = remaining
			break
		}
		var c int
		if i == 0 {
			c = d.first.Sample(r)
		} else if d.condOK {
			c = d.cond[(i-1)*(d.n+1)+remaining].Sample(r)
		} else {
			c = r.Binomial(remaining, d.pcond[i])
		}
		out[i] = c
		remaining -= c
		if i == d.exhaust {
			// Numerical exhaustion: all residual mass was in probs[i].
			for j := i + 1; j < d.k; j++ {
				out[j] = 0
			}
			if remaining > 0 {
				out[i] += remaining
			}
			return
		}
	}
}

// maxCondCache bounds the trial count PrecomputeCond will build a table for:
// the table has (k-2)(n+1) samplers, and past this size the per-Init build
// cost stops amortizing over typical populations.
const maxCondCache = 1024

// PrecomputeCond caches every conditional sampler Sample can need — one
// Binomial(m, pcond[i]) per inner component i and remaining count m — so the
// per-draw binomial setup (a math.Pow each) is paid (k-2)(n+1) times per
// Init instead of k-2 times per Sample. Draws are bit-identical to the
// uncached path: the cached samplers are built with exactly the arguments
// Sample would pass to Stream.Binomial. Call it between Init and handing
// the distribution to concurrent samplers; Sample never mutates the cache.
// A no-op for k ≤ 2 or n > maxCondCache.
func (d *MultinomialDist) PrecomputeCond() {
	if d.k <= 2 || d.n > maxCondCache {
		return
	}
	stride := d.n + 1
	need := (d.k - 2) * stride
	if cap(d.cond) < need {
		d.cond = make([]BinomialDist, need)
	}
	d.cond = d.cond[:need]
	last := d.k - 2
	if d.exhaust < last {
		last = d.exhaust
	}
	for i := 1; i <= last; i++ {
		for m := 0; m <= d.n; m++ {
			d.cond[(i-1)*stride+m].Init(m, d.pcond[i])
		}
	}
	d.condOK = true
}

// PrecomputeJoint enumerates the full support of the count-vector
// distribution — the C(n+k-1, k-1) compositions of n into k parts — and
// builds a Walker/Vose alias table over their pmf, so SampleJoint draws the
// whole vector with one Intn and one Float64. It reports whether the table
// was built; it refuses (and SampleJoint falls back to Sample) when the
// support exceeds maxSupport, n does not fit the byte-packed support store,
// or underflow zeroed the entire pmf. The joint table realizes the same
// distribution as Sample but consumes the stream differently, so switching
// it on changes trajectories (not laws).
func (d *MultinomialDist) PrecomputeJoint(maxSupport int) bool {
	d.jointOK = false
	if d.k < 2 || d.n > 255 {
		return false
	}
	support := 1
	// C(n+k-1, k-1) with overflow/size guard.
	for i := 1; i < d.k; i++ {
		support = support * (d.n + i) / i
		if support > maxSupport {
			return false
		}
	}
	if cap(d.jointVecs) < support*d.k {
		d.jointVecs = make([]uint8, support*d.k)
	}
	d.jointVecs = d.jointVecs[:0]
	if cap(d.jointW) < support {
		d.jointW = make([]float64, 0, support)
	}
	d.jointW = d.jointW[:0]
	// invFact[c] = 1/c!; the pmf n!·∏ pᵢ^cᵢ/cᵢ! only needs relative weights,
	// so the common n! factor is dropped.
	d.invFact = grow(d.invFact, d.n+1)
	d.invFact[0] = 1
	for c := 1; c <= d.n; c++ {
		d.invFact[c] = d.invFact[c-1] / float64(c)
	}
	if cap(d.cur) < d.k {
		d.cur = make([]uint8, d.k)
	}
	cur := d.cur[:d.k]
	in, run := grow(d.in, d.k), grow(d.run, d.k)
	d.in, d.run = in, run
	// Walk the compositions in lexicographic order, components 0…k−2 as an
	// odometer with the last taking what is left. Component i holds count
	// cur[i] of left = n − Σ_{j<i} cur[j]; its running product is
	// in[i]·probs[i]^cur[i], built by repeated multiplication, and the next
	// component's input weight is run[i]·invFact[cur[i]]. These are the
	// products, in the same order, of a recursive walk over c = 0…left.
	last := d.k - 1
	left := d.n
	in[0] = 1
	i := 0
	for {
		// Descend from component i with count 0 at every level.
		for ; i < last; i++ {
			cur[i] = 0
			run[i] = in[i]
			in[i+1] = run[i] * d.invFact[0]
		}
		cur[last] = uint8(left)
		d.jointVecs = append(d.jointVecs, cur...)
		d.jointW = append(d.jointW, in[last]*pow(d.probs[last], left)*d.invFact[left])
		// Advance the deepest component that still has trials to take.
		for i = last - 1; i >= 0 && left == 0; i-- {
			left += int(cur[i])
		}
		if i < 0 {
			break
		}
		cur[i]++
		left--
		run[i] *= d.probs[i]
		in[i+1] = run[i] * d.invFact[cur[i]]
		i++
	}
	if err := d.joint.Init(d.jointW); err != nil {
		return false
	}
	d.jointOK = true
	return true
}

// pow is xⁿ by repeated multiplication: n is a small trial count, and the
// slight accuracy edge of math.Pow is irrelevant for pmf weights.
func pow(x float64, n int) float64 {
	p := 1.0
	for ; n > 0; n-- {
		p *= x
	}
	return p
}

// SampleJoint draws one count vector like Sample, through the joint alias
// table when PrecomputeJoint built one (falling back to Sample otherwise).
// Same concurrency contract as Sample: read-only, share freely across
// streams.
func (d *MultinomialDist) SampleJoint(r *Stream, out []int) {
	if !d.jointOK {
		d.Sample(r, out)
		return
	}
	if len(out) != d.k {
		panic("rng: Multinomial output length mismatch")
	}
	base := d.joint.Sample(r) * d.k
	for j := 0; j < d.k; j++ {
		out[j] = int(d.jointVecs[base+j])
	}
}
