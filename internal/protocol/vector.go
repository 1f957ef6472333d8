package protocol

// Vectorized struct-of-arrays populations (sim.VecPopulation) for the
// binary-alphabet protocols. Each kernel is its protocol's definition —
// update rule, tie-breaking, corruption adversary and snapshot format. A
// kernel stores the population as flat slices and consumes the round's
// observation law (sim.VecObs) instead of per-agent sample counts:
//
//   - Voter: adopting the symbol of one uniformly chosen observation among
//     h i.i.d. draws from the mixture q is marginally one Bernoulli(q₁)
//     draw, so the kernel spends a single uniform per non-source and never
//     materializes counts at all (obs.P1 supplies q₁, per-agent on graphs).
//   - MajorityRule and SF consume the full count vector (k₁, h−k₁), so
//     they draw k₁ through obs.K1 — the shared cached Binomial(h, q₁)
//     sampler on the complete graph, the agent's neighborhood law on a
//     graph — one draw per agent, with setup paid once per round (or
//     memoized per neighborhood tally).
//
// The k-ary (alphabet-4) kernels for TrustBit and SSF live in
// vector_kary.go and consume full count vectors through obs.Counts.
//
// Every kernel honors the engine's crash mask: a crashed agent
// (obs.Crashed) draws nothing, keeps its state, and still tallies its
// current opinion. CorruptAt is the protocol's corruption adversary, and
// InitRange builds a fresh agent under a corruption mode, so mid-run
// corruption and churn rewrite the flat slices in place.
//
// The kernels draw from the chunk stream in agent-index order; their
// trajectories are deterministic in (seed, chunk layout) and independent of
// the worker count.

import (
	"fmt"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// opinionPop is the state the voter and majority populations share: one
// opinion per agent that doubles as its display symbol (sources' opinions
// are pinned to their preference). The protocols differ only in InitRange
// and StepRange.
type opinionPop struct {
	spec    sim.VecSpec
	opinion []uint8
}

func (p *opinionPop) CountRange(lo, hi int, counts []int) {
	ones := 0
	for _, o := range p.opinion[lo:hi] {
		ones += int(o)
	}
	counts[1] += ones
	counts[0] += hi - lo - ones
}

func (p *opinionPop) DisplayRange(lo, hi int, out []uint8) {
	copy(out[lo:hi], p.opinion[lo:hi])
}

// CorruptAt implements sim.VecPopulation: wrong consensus sets the wrong
// opinion, random corruption a fair coin. Sources are immune.
func (p *opinionPop) CorruptAt(i int, mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	if i < p.spec.Sources1+p.spec.Sources0 {
		return
	}
	switch mode {
	case sim.CorruptWrongConsensus:
		p.opinion[i] = uint8(wrong)
	case sim.CorruptRandom:
		p.opinion[i] = uint8(r.Coin())
	}
}

func (p *opinionPop) State(i int) (display, opinion int) {
	return int(p.opinion[i]), int(p.opinion[i])
}

func (p *opinionPop) SnapshotRange(w *sim.SnapWriter, lo, hi int) {
	for _, o := range p.opinion[lo:hi] {
		w.U8(o)
	}
}

func (p *opinionPop) RestoreRange(rd *sim.SnapReader, lo, hi int) error {
	for i := lo; i < hi; i++ {
		o := rd.U8()
		if o > 1 {
			return fmt.Errorf("protocol: snapshot agent %d has opinion %d", i, o)
		}
		p.opinion[i] = o
	}
	return rd.Err()
}

// NewVecPopulation implements sim.Protocol.
func (Voter) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	return &voterPop{opinionPop{spec, make([]uint8, spec.N)}}
}

// voterPop is the voter population.
type voterPop struct{ opinionPop }

func (p *voterPop) InitRange(lo, hi int, mode sim.CorruptionMode, r *rng.Stream) {
	wrong := 1 - p.spec.Correct
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	for i := lo; i < hi; i++ {
		switch {
		case i < s1:
			p.opinion[i] = 1
		case i < s1+s0:
			p.opinion[i] = 0
		default:
			p.opinion[i] = 0
			if mode != sim.CorruptNone {
				p.CorruptAt(i, mode, wrong, r)
			}
		}
	}
}

// MarginalOnly implements sim.VecMarginalOnly: StepRange reads obs.P1 only.
func (*voterPop) MarginalOnly() {}

func (p *voterPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
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
		// Adopting a uniformly chosen observation among h i.i.d. draws from
		// the round mixture is marginally a single Bernoulli(q₁).
		if r.Float64() < obs.P1(i) {
			p.opinion[i] = 1
			ones++
		} else {
			p.opinion[i] = 0
		}
	}
	return ones
}

// NewVecPopulation implements sim.Protocol.
func (MajorityRule) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	return &majorityPop{opinionPop{spec, make([]uint8, spec.N)}}
}

// majorityPop is the h-majority population.
type majorityPop struct{ opinionPop }

func (p *majorityPop) InitRange(lo, hi int, mode sim.CorruptionMode, r *rng.Stream) {
	wrong := 1 - p.spec.Correct
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	for i := lo; i < hi; i++ {
		switch {
		case i < s1:
			p.opinion[i] = 1
		case i < s1+s0:
			p.opinion[i] = 0
		default:
			// Balanced id-parity initialization.
			p.opinion[i] = uint8(i % 2)
			if mode != sim.CorruptNone {
				p.CorruptAt(i, mode, wrong, r)
			}
		}
	}
}

func (p *majorityPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
	h := obs.H
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
		k1 := obs.K1(i, r)
		var o uint8
		switch {
		case 2*k1 > h:
			o = 1
		case 2*k1 < h:
			o = 0
		default:
			o = uint8(r.Coin())
		}
		p.opinion[i] = o
		ones += int(o)
	}
	return ones
}

// NewVecPopulation implements sim.Protocol for SF (both the standard and
// the alternating listening schedule).
func (p *SF) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	m, t, w, l, err := p.params(spec.Env)
	if err != nil {
		// sim.Config.Validate runs Check before construction; reaching here
		// means the caller skipped validation.
		panic(fmt.Sprintf("protocol: SF.NewVecPopulation with invalid env: %v", err))
	}
	n := spec.N
	pop := &sfPop{
		spec: spec,
		m:    m, phaseT: t, boostW: w, boostL: l,
		total: 3*t + l*ceilDiv(w, spec.Env.H),
		alt:   p.alternating,

		round:    make([]int32, n),
		counter1: make([]int32, n),
		counter0: make([]int32, n),
		weak:     make([]uint8, n),
		opinion:  make([]uint8, n),
		subPhase: make([]int32, n),
	}
	if p.alternating {
		pop.firstSym = make([]uint8, n)
	}
	// Boosting counters need to hold up to quota+h−1; keep them in int so
	// any m override fits.
	pop.boostOnes = make([]int, n)
	pop.boostAll = make([]int, n)
	return pop
}

// sfPop is the SF population as flat per-field slices.
type sfPop struct {
	spec                      sim.VecSpec
	m, phaseT, boostW, boostL int // budget, phase length T, boosting quota w, sub-phases L
	total                     int // full schedule length, for Corrupt's clock scramble
	alt                       bool

	firstSym  []uint8 // alternating variant only: the coin-chosen first display symbol
	round     []int32 // rounds already observed
	counter1  []int32 // 1-messages seen in Phase 0 (variant: in the whole window)
	counter0  []int32 // 0-messages seen in Phase 1 (variant: in the whole window)
	weak      []uint8 // weak opinion Ŷ, formed at the end of Phase 1
	opinion   []uint8
	subPhase  []int32 // current boosting sub-phase (0-based)
	boostOnes []int   // 1-messages gathered in the current sub-phase
	boostAll  []int   // messages gathered in the current sub-phase
}

func (p *sfPop) InitRange(lo, hi int, mode sim.CorruptionMode, r *rng.Stream) {
	s1, s0 := p.spec.Sources1, p.spec.Sources0
	wrong := 1 - p.spec.Correct
	for i := lo; i < hi; i++ {
		p.round[i], p.counter1[i], p.counter0[i] = 0, 0, 0
		p.weak[i], p.subPhase[i] = 0, 0
		p.boostOnes[i], p.boostAll[i] = 0, 0
		switch {
		case i < s1:
			p.opinion[i] = 1
		case i < s1+s0:
			p.opinion[i] = 0
		default:
			p.opinion[i] = 0
		}
		// Seeded init, then corruption, agent by agent.
		if p.alt {
			p.firstSym[i] = uint8(r.Coin())
		}
		if mode != sim.CorruptNone {
			p.CorruptAt(i, mode, wrong, r)
		}
	}
}

// CorruptAt implements sim.VecPopulation: the adversary scrambles opinions,
// counters and clocks. It hits sources too: SF is not self-stabilizing,
// and the experiments show that corrupting its counters and clocks breaks
// it (contrast with SSF).
func (p *sfPop) CorruptAt(i int, mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	switch mode {
	case sim.CorruptWrongConsensus:
		p.opinion[i] = uint8(wrong)
		p.weak[i] = uint8(wrong)
		if wrong == 1 {
			p.counter1[i], p.counter0[i] = int32(p.m), 0
		} else {
			p.counter1[i], p.counter0[i] = 0, int32(p.m)
		}
		p.round[i] = int32(r.Intn(p.total))
	case sim.CorruptRandom:
		p.opinion[i] = uint8(r.Coin())
		p.weak[i] = uint8(r.Coin())
		p.counter1[i] = int32(r.Intn(p.m + 1))
		p.counter0[i] = int32(r.Intn(p.m + 1))
		p.round[i] = int32(r.Intn(p.total))
		p.subPhase[i] = int32(r.Intn(p.boostL + 1))
		p.boostOnes[i] = r.Intn(p.boostW + 1)
		p.boostAll[i] = p.boostOnes[i] + r.Intn(p.boostW+1)
	}
}

// display is agent i's display: its preference (sources) or the listening
// schedule's symbol during Phases 0 and 1, its opinion while boosting.
func (p *sfPop) display(i int) int {
	rd := int(p.round[i])
	if rd < 2*p.phaseT { // listening window
		if i < p.spec.Sources1 {
			return 1
		}
		if i < p.spec.Sources1+p.spec.Sources0 {
			return 0
		}
		if p.alt {
			return (int(p.firstSym[i]) + rd) % 2
		}
		if rd < p.phaseT {
			return 0
		}
		return 1
	}
	return int(p.opinion[i])
}

func (p *sfPop) CountRange(lo, hi int, counts []int) {
	ones := 0
	for i := lo; i < hi; i++ {
		ones += p.display(i)
	}
	counts[1] += ones
	counts[0] += hi - lo - ones
}

func (p *sfPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
	h := obs.H
	ones := 0
	for i := lo; i < hi; i++ {
		if obs.Crashed(i) {
			// Crashed: no observations, and the schedule clock does not
			// advance.
			ones += int(p.opinion[i])
			continue
		}
		k1 := obs.K1(i, r)
		rd := int(p.round[i])
		switch {
		case rd < 2*p.phaseT && p.alt:
			// Count both symbols throughout the listening window; the
			// symmetric background cancels in counter1 − counter0.
			p.counter1[i] += int32(k1)
			p.counter0[i] += int32(h - k1)
			if rd == 2*p.phaseT-1 {
				w := majority32(p.counter1[i], p.counter0[i], r.Coin)
				p.weak[i] = w
				p.opinion[i] = w
			}
		case rd < p.phaseT:
			p.counter1[i] += int32(k1)
		case rd < 2*p.phaseT:
			p.counter0[i] += int32(h - k1)
			if rd == 2*p.phaseT-1 {
				w := majority32(p.counter1[i], p.counter0[i], r.Coin)
				p.weak[i] = w
				p.opinion[i] = w
			}
		default:
			p.boostOnes[i] += k1
			p.boostAll[i] += h
			quota := p.boostW
			if int(p.subPhase[i]) >= p.boostL {
				quota = p.m
			}
			if p.boostAll[i] >= quota {
				p.opinion[i] = uint8(majority(p.boostOnes[i], p.boostAll[i]-p.boostOnes[i], r.Coin))
				p.boostOnes[i], p.boostAll[i] = 0, 0
				p.subPhase[i]++
			}
		}
		p.round[i] = int32(rd + 1)
		ones += int(p.opinion[i])
	}
	return ones
}

func (p *sfPop) DisplayRange(lo, hi int, out []uint8) {
	for i := lo; i < hi; i++ {
		out[i] = uint8(p.display(i))
	}
}

func (p *sfPop) State(i int) (display, opinion int) {
	return p.display(i), int(p.opinion[i])
}

// WeakOpinionAt implements sim.VecWeakOpinions for Lemma 28 analysis.
func (p *sfPop) WeakOpinionAt(i int) int { return int(p.weak[i]) }

func (p *sfPop) SnapshotRange(w *sim.SnapWriter, lo, hi int) {
	for i := lo; i < hi; i++ {
		if p.alt {
			w.U8(p.firstSym[i])
		}
		w.Int(int(p.round[i]))
		w.Int(int(p.counter1[i]))
		w.Int(int(p.counter0[i]))
		w.U8(p.weak[i])
		w.U8(p.opinion[i])
		w.Int(int(p.subPhase[i]))
		w.Int(p.boostOnes[i])
		w.Int(p.boostAll[i])
	}
}

func (p *sfPop) RestoreRange(rd *sim.SnapReader, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if p.alt {
			fs := rd.U8()
			if fs > 1 {
				return fmt.Errorf("protocol: SF snapshot agent %d has first symbol %d", i, fs)
			}
			p.firstSym[i] = fs
		}
		round := rd.Int()
		c1 := rd.Int()
		c0 := rd.Int()
		weak := rd.U8()
		op := rd.U8()
		sub := rd.Int()
		bOnes := rd.Int()
		bAll := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if round < 0 || c1 < 0 || c0 < 0 || sub < 0 || bOnes < 0 || bAll < bOnes || weak > 1 || op > 1 {
			return fmt.Errorf("protocol: SF snapshot agent %d has inconsistent state", i)
		}
		p.round[i] = int32(round)
		p.counter1[i] = int32(c1)
		p.counter0[i] = int32(c0)
		p.weak[i] = weak
		p.opinion[i] = op
		p.subPhase[i] = int32(sub)
		p.boostOnes[i] = bOnes
		p.boostAll[i] = bAll
	}
	return rd.Err()
}

// majority32 is majority for int32 counters.
func majority32(ones, zeros int32, coin func() int) uint8 {
	switch {
	case ones > zeros:
		return 1
	case zeros > ones:
		return 0
	default:
		return uint8(coin())
	}
}
