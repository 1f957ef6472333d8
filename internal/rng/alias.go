package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Alias samples from a fixed discrete distribution in O(1) per draw using
// the Walker/Vose alias method. It is used for per-sample application of
// noise-matrix rows in the exact observation backend, where the same row
// distribution is sampled millions of times.
//
// A zero Alias is valid scratch: Init builds (or rebuilds) the table in
// place, reusing the internal buffers, so hot loops can refresh a table
// every round without allocating.
type Alias struct {
	prob  []float64
	alias []int
	// Construction scratch, retained across Init calls.
	scaled []float64
	work   []int
}

// NewAlias builds an alias table for the given weights. Weights must be
// non-negative, finite, and have a positive sum; they need not be
// normalized.
func NewAlias(weights []float64) (*Alias, error) {
	a := new(Alias)
	if err := a.Init(weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Init (re)builds the table for the given weights, reusing the receiver's
// storage. After the first call with a given outcome count, subsequent
// calls with the same count perform no allocations.
func (a *Alias) Init(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("rng: alias table needs at least one weight")
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("rng: alias weight %d is invalid (%v)", i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("rng: alias weights sum to zero")
	}

	a.prob = grow(a.prob, n)
	a.scaled = grow(a.scaled, n)
	a.alias = growInts(a.alias, n)
	a.work = growInts(a.work, 2*n)

	// Scaled probabilities: mean 1. The small and large worklists share one
	// buffer: small grows from the front, large from the back.
	scaled := a.scaled
	work := a.work
	nSmall, nLarge := 0, 0
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			work[nSmall] = i
			nSmall++
		} else {
			nLarge++
			work[2*n-nLarge] = i
		}
	}
	for nSmall > 0 && nLarge > 0 {
		nSmall--
		l := work[nSmall]
		g := work[2*n-nLarge]
		nLarge--
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			work[nSmall] = g
			nSmall++
		} else {
			nLarge++
			work[2*n-nLarge] = g
		}
	}
	// Remaining entries have scaled probability 1 up to rounding.
	for ; nLarge > 0; nLarge-- {
		g := work[2*n-nLarge]
		a.prob[g] = 1
		a.alias[g] = g
	}
	for ; nSmall > 0; nSmall-- {
		l := work[nSmall-1]
		a.prob[l] = 1
		a.alias[l] = l
	}
	return nil
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// Sample draws one outcome index using stream r. It draws the column as
// Intn(Len()) would and then the coin as Float64 would, consuming the stream
// identically, with Intn's arithmetic written out so that the common draw
// makes no call below Sample.
func (a *Alias) Sample(r *Stream) int {
	n := uint64(len(a.prob))
	var i uint64
	if n&(n-1) == 0 {
		i = r.Uint64() & (n - 1)
	} else {
		var lo uint64
		i, lo = bits.Mul64(r.Uint64(), n)
		if lo < n {
			i = r.uint64nReject(n, i, lo)
		}
	}
	if r.Float64() < a.prob[i] {
		return int(i)
	}
	return a.alias[i]
}
