package protocol

// Vectorized populations for the alphabet-4 protocols (TrustBit and SSF),
// the k-ary counterparts of the binary kernels in vector.go and, like them,
// their protocols' definitions. Both consume
// the full per-symbol observation vector through obs.Counts — one cached
// Multinomial(h, q) draw per agent on the complete graph, one
// neighborhood-law draw on a graph — instead of h individual channel
// applications, and both keep their state as flat slices (SSF's memory
// multiset as a flat 4n counter slab). The kernels follow the conventions
// documented in vector.go: chunk-stream draws in agent-index order, crash
// masks honored, and corruption and churn applied in place through
// CorruptAt and InitRange.

import (
	"fmt"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// NewVecPopulation implements sim.Protocol.
func (TrustBit) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	n := spec.N
	return &trustBitPop{
		spec:     spec,
		informed: make([]uint8, n),
		opinion:  make([]uint8, n),
	}
}

// trustBitPop is the TrustBit population. The display symbol is derived:
// (informed? 1 : 0) as the header bit, the opinion as the value bit — for
// sources informed is pinned to 1 and the opinion to the preference, so one
// formula covers every role.
type trustBitPop struct {
	spec     sim.VecSpec
	informed []uint8
	opinion  []uint8
}

func (p *trustBitPop) InitRange(lo, hi int, mode sim.CorruptionMode, r *rng.Stream) {
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	wrong := 1 - p.spec.Correct
	for i := lo; i < hi; i++ {
		switch {
		case i < s1:
			p.informed[i], p.opinion[i] = 1, 1
		case i < s1+s0:
			p.informed[i], p.opinion[i] = 1, 0
		default:
			// Uninformed, with balanced id-parity opinions.
			p.informed[i], p.opinion[i] = 0, uint8(i%2)
			if mode != sim.CorruptNone {
				p.CorruptAt(i, mode, wrong, r)
			}
		}
	}
}

func (p *trustBitPop) display(i int) int {
	return int(p.informed[i])*ssfSym10 + int(p.opinion[i])
}

func (p *trustBitPop) CountRange(lo, hi int, counts []int) {
	for i := lo; i < hi; i++ {
		counts[p.display(i)]++
	}
}

func (p *trustBitPop) DisplayRange(lo, hi int, out []uint8) {
	for i := lo; i < hi; i++ {
		out[i] = uint8(p.display(i))
	}
}

func (p *trustBitPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
	var buf [4]int
	ones := 0
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	for i := lo; i < hi; i++ {
		if i < s1 {
			ones++
			continue
		}
		if i < s1+s0 {
			continue
		}
		if obs.Crashed(i) {
			ones += int(p.opinion[i])
			continue
		}
		obs.Counts(i, r, buf[:])
		if tagged := buf[ssfSym10] + buf[ssfSym11]; tagged > 0 {
			p.opinion[i] = uint8(majority(buf[ssfSym11], buf[ssfSym10], r.Coin))
			p.informed[i] = 1
		}
		ones += int(p.opinion[i])
	}
	return ones
}

func (p *trustBitPop) State(i int) (display, opinion int) {
	return p.display(i), int(p.opinion[i])
}

// CorruptAt implements sim.VecPopulation: wrong consensus makes the agent
// informed with the wrong opinion; random corruption draws the informed
// flag and the opinion as fair coins. Sources are immune.
func (p *trustBitPop) CorruptAt(i int, mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	if i < p.spec.Sources1+p.spec.Sources0 {
		return
	}
	switch mode {
	case sim.CorruptWrongConsensus:
		p.opinion[i] = uint8(wrong)
		p.informed[i] = 1
	case sim.CorruptRandom:
		p.opinion[i] = uint8(r.Coin())
		p.informed[i] = uint8(r.Coin())
	}
}

func (p *trustBitPop) SnapshotRange(w *sim.SnapWriter, lo, hi int) {
	for i := lo; i < hi; i++ {
		w.U8(p.informed[i])
		w.U8(p.opinion[i])
	}
}

func (p *trustBitPop) RestoreRange(rd *sim.SnapReader, lo, hi int) error {
	for i := lo; i < hi; i++ {
		inf := rd.U8()
		op := rd.U8()
		if inf > 1 || op > 1 {
			return fmt.Errorf("protocol: trustbit snapshot agent %d has state (%d, %d)", i, inf, op)
		}
		p.informed[i] = inf
		p.opinion[i] = op
	}
	return rd.Err()
}

// NewVecPopulation implements sim.Protocol. It panics on an environment
// Check rejects, quotas past the counters' limit included.
func (p *SSF) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	m, err := p.quota(spec.Env)
	if err != nil {
		panic(fmt.Sprintf("protocol: SSF.NewVecPopulation with invalid env: %v", err))
	}
	n := spec.N
	pop := &ssfPop{
		spec:    spec,
		m:       m,
		mem:     make([]int32, 4*n),
		total:   make([]int32, n),
		weak:    make([]uint8, n),
		opinion: make([]uint8, n),
	}
	return pop
}

// ssfPop is the SSF population: agent i's memory multiset lives at
// mem[4i:4i+4] with total[i] = |M|, and weak/opinion hold Ŷ and Y. Memory
// counts peak at m + h − 1 ≤ 2³⁰ + h before an update empties them, so
// int32 counters suffice (the quota check refuses larger m).
type ssfPop struct {
	spec sim.VecSpec
	m    int

	mem     []int32
	total   []int32
	weak    []uint8
	opinion []uint8
}

func (p *ssfPop) InitRange(lo, hi int, mode sim.CorruptionMode, r *rng.Stream) {
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	wrong := 1 - p.spec.Correct
	for i := lo; i < hi; i++ {
		base := 4 * i
		p.mem[base], p.mem[base+1], p.mem[base+2], p.mem[base+3] = 0, 0, 0, 0
		p.total[i] = 0
		switch {
		case i < s1:
			p.weak[i], p.opinion[i] = 1, 1
		case i < s1+s0:
			p.weak[i], p.opinion[i] = 0, 0
		default:
			p.weak[i], p.opinion[i] = 0, 0
		}
		// Round-0 corruption hits sources too: SSF is self-stabilizing and
		// the adversary of Section 1.3 scrambles their memory and clocks
		// (their display stays pinned to the preference regardless).
		if mode != sim.CorruptNone {
			p.CorruptAt(i, mode, wrong, r)
		}
	}
}

func (p *ssfPop) display(i int) int {
	if i < p.spec.Sources1 {
		return ssfSym11
	}
	if i < p.spec.Sources1+p.spec.Sources0 {
		return ssfSym10
	}
	return ssfSym00 + int(p.weak[i])
}

func (p *ssfPop) CountRange(lo, hi int, counts []int) {
	for i := lo; i < hi; i++ {
		counts[p.display(i)]++
	}
}

func (p *ssfPop) DisplayRange(lo, hi int, out []uint8) {
	for i := lo; i < hi; i++ {
		out[i] = uint8(p.display(i))
	}
}

func (p *ssfPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
	var buf [4]int
	ones := 0
	for i := lo; i < hi; i++ {
		if obs.Crashed(i) {
			ones += int(p.opinion[i])
			continue
		}
		// Every agent — sources included — accumulates observations and
		// runs update rounds; sources differ only in what they display.
		obs.Counts(i, r, buf[:])
		base := 4 * i
		t := p.total[i]
		for s := 0; s < 4; s++ {
			p.mem[base+s] += int32(buf[s])
			t += int32(buf[s])
		}
		if int(t) >= p.m {
			p.weak[i] = majority32(p.mem[base+ssfSym11], p.mem[base+ssfSym10], r.Coin)
			ones1 := p.mem[base+ssfSym01] + p.mem[base+ssfSym11]
			zeros := p.mem[base+ssfSym00] + p.mem[base+ssfSym10]
			p.opinion[i] = majority32(ones1, zeros, r.Coin)
			p.mem[base], p.mem[base+1], p.mem[base+2], p.mem[base+3] = 0, 0, 0, 0
			t = 0
		}
		p.total[i] = t
		ones += int(p.opinion[i])
	}
	return ones
}

func (p *ssfPop) State(i int) (display, opinion int) {
	return p.display(i), int(p.opinion[i])
}

// WeakOpinionAt implements sim.VecWeakOpinions, exposing Ŷ for Lemma 36
// analysis.
func (p *ssfPop) WeakOpinionAt(i int) int { return int(p.weak[i]) }

// CorruptAt implements sim.VecPopulation: the adversary of Section 1.3 sets
// the memory multiset and the opinions arbitrarily. It hits sources too;
// their role and quota are the only intact state. Wrong consensus stuffs
// the memory with fake messages for the wrong opinion, filled to a random
// level so update rounds desynchronize across agents.
func (p *ssfPop) CorruptAt(i int, mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	base := 4 * i
	switch mode {
	case sim.CorruptWrongConsensus:
		p.weak[i] = uint8(wrong)
		p.opinion[i] = uint8(wrong)
		fill := r.Intn(p.m)
		p.mem[base], p.mem[base+1], p.mem[base+2], p.mem[base+3] = 0, 0, 0, 0
		p.mem[base+ssfSym10+wrong] = int32(fill / 2)
		p.mem[base+ssfSym00+wrong] = int32(fill - fill/2)
		p.total[i] = int32(fill)
	case sim.CorruptRandom:
		p.weak[i] = uint8(r.Coin())
		p.opinion[i] = uint8(r.Coin())
		t := int32(0)
		for s := 0; s < 4; s++ {
			c := int32(r.Intn(p.m/4 + 1))
			p.mem[base+s] = c
			t += c
		}
		p.total[i] = t
	}
}

func (p *ssfPop) SnapshotRange(w *sim.SnapWriter, lo, hi int) {
	for i := lo; i < hi; i++ {
		base := 4 * i
		for s := 0; s < 4; s++ {
			w.Int(int(p.mem[base+s]))
		}
		w.U8(p.weak[i])
		w.U8(p.opinion[i])
	}
}

func (p *ssfPop) RestoreRange(rd *sim.SnapReader, lo, hi int) error {
	for i := lo; i < hi; i++ {
		base := 4 * i
		t := 0
		for s := 0; s < 4; s++ {
			c := rd.Int()
			if c < 0 || c > p.m+p.spec.Env.H {
				return fmt.Errorf("protocol: SSF snapshot agent %d has memory count %d", i, c)
			}
			p.mem[base+s] = int32(c)
			t += c
		}
		weak := rd.U8()
		op := rd.U8()
		if weak > 1 || op > 1 {
			return fmt.Errorf("protocol: SSF snapshot agent %d has opinions (%d, %d)", i, weak, op)
		}
		if err := rd.Err(); err != nil {
			return err
		}
		p.total[i] = int32(t)
		p.weak[i] = weak
		p.opinion[i] = op
	}
	return rd.Err()
}
