// Package rng provides the deterministic random-number substrate used by the
// noisy PULL simulator and the experiment harness.
//
// Everything in the simulation must be reproducible from a single 64-bit
// seed, independent of scheduling: each agent owns a Stream derived from
// (seed, agent id), so stepping agents on a worker pool yields bit-identical
// traces regardless of GOMAXPROCS.
//
// The package implements
//
//   - splitmix64, used only to expand seeds,
//   - xoshiro256++ streams (Stream),
//   - exact Bernoulli, binomial (inversion + BTRS transformed rejection),
//     multinomial and categorical (alias method) samplers, and
//   - permutation helpers.
//
// The binomial and multinomial samplers are what make the aggregate
// observation backend of package sim exact: an agent's h uniform-with-
// replacement samples, pushed through the noise channel, are distributed as
// a pair of nested multinomials (see sim and noise).
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// SplitMix64 returns the next value of the splitmix64 sequence for the given
// state, and the advanced state. It is used to expand user seeds into
// xoshiro256++ state and to derive independent sub-streams.
func SplitMix64(state uint64) (value, next uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), next
}

// Stream is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct streams with New, or Reseed one with DeriveSeed. Stream
// is not safe for concurrent use: give each goroutine (each simulated
// agent) its own stream.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from seed via splitmix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Stream {
	var st Stream
	st.Reseed(seed)
	return &st
}

// DeriveSeed returns the seed of sub-stream id of seed. Streams seeded
// from the same seed with distinct ids are statistically independent: the
// seed material is passed through two rounds of splitmix64 mixing so that
// adjacent ids do not produce correlated states. Callers reinitialize an
// existing Stream in place (stream.Reseed(DeriveSeed(seed, id))) without
// allocating, which is what makes simulation runners reusable across
// trials.
func DeriveSeed(seed, id uint64) uint64 {
	v1, _ := SplitMix64(seed ^ 0x8f1bbcdcbfa53e0b)
	v2, _ := SplitMix64(id ^ 0x2545f4914f6cdd1d)
	return v1 ^ (v2 * 0xd6e8feb86659fd93)
}

// Reseed resets the stream state from seed.
func (r *Stream) Reseed(seed uint64) {
	state := seed
	for i := range r.s {
		r.s[i], state = SplitMix64(state)
	}
	// xoshiro256++ requires a state that is not all zero; splitmix64 output
	// is all-zero only with negligible probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State returns the stream's internal xoshiro256++ state. Together with
// SetState it lets checkpoint/resume code capture a stream mid-sequence and
// continue it bit-identically later (sim.Runner.Snapshot/Restore).
func (r *Stream) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. The all-zero
// state is invalid for xoshiro256++ and is rejected.
func (r *Stream) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: SetState with all-zero state")
	}
	r.s = s
	return nil
}

// Uint64 returns the next 64 uniformly random bits. It is the xoshiro256++
// step in closed form: the state is loaded once and stored once, which
// keeps the step cheap enough for the compiler to inline into Float64,
// Coin and every sampler's draw.
func (r *Stream) Uint64() uint64 {
	a, b, c, d := r.s[0], r.s[1], r.s[2], r.s[3]
	r.s = [4]uint64{a ^ b ^ d, a ^ b ^ c, a ^ c ^ (b << 17), bits.RotateLeft64(b^d, 45)}
	return bits.RotateLeft64(a+d, 23) + a
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift method with rejection, so the result is
// exactly uniform.
func (r *Stream) Uint64n(n uint64) uint64 {
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		if n == 0 {
			panic("rng: Uint64n with n == 0")
		}
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		hi = r.uint64nReject(n, hi, lo)
	}
	return hi
}

// uint64nReject finishes a Uint64n draw whose first product (hi, lo) fell
// in the low band lo < n: it redraws while lo is below 2⁶⁴ mod n, which
// happens with probability (2⁶⁴ mod n)/2⁶⁴ per draw. Alias.Sample shares it.
func (r *Stream) uint64nReject(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Coin returns 0 or 1 with equal probability. It is the tie-breaking coin
// the paper's protocols use.
func (r *Stream) Coin() int {
	return int(r.Uint64() >> 63)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// btrsThreshold is the mean above which the binomial sampler switches from
// sequential inversion to BTRS rejection. Inversion costs O(np); BTRS is
// O(1) but only valid for np >= 10.
const btrsThreshold = 30

// Binomial returns an exact sample from Binomial(n, p).
// It panics if n < 0; p is clamped to [0, 1]. One-shot draws pay the full
// per-distribution setup; callers sampling the same (n, p) repeatedly
// should Init a BinomialDist once and Sample from it instead — the two
// consume the stream identically.
func (r *Stream) Binomial(n int, p float64) int {
	var d BinomialDist
	d.Init(n, p)
	return d.Sample(r)
}

// Multinomial draws counts from Multinomial(n, probs), writing the result
// into out (which must have len(probs) entries). The probabilities need not
// be normalized; they must be non-negative with a positive sum. It uses the
// standard conditional-binomial decomposition, so each draw costs
// O(len(probs)) binomial samples.
func (r *Stream) Multinomial(n int, probs []float64, out []int) {
	if len(out) != len(probs) {
		panic("rng: Multinomial output length mismatch")
	}
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
	remaining := n
	rest := total
	for i := range probs {
		if remaining == 0 {
			out[i] = 0
			continue
		}
		if i == len(probs)-1 {
			out[i] = remaining
			break
		}
		pi := probs[i] / rest
		if pi > 1 {
			pi = 1
		}
		k := r.Binomial(remaining, pi)
		out[i] = k
		remaining -= k
		rest -= probs[i]
		if rest <= 0 {
			// Numerical exhaustion: all residual mass was in probs[i].
			for j := i + 1; j < len(probs); j++ {
				out[j] = 0
			}
			if remaining > 0 {
				out[i] += remaining
			}
			return
		}
	}
}
