package sim

// The per-agent engine.
//
// One round factors through a small per-round law instead of h individual
// channel applications per agent:
//
//   - Complete graph, binary alphabet: given the display counts, each
//     agent's h observations are i.i.d. draws from the mixture q with
//     q₁ = Σ_σ (counts[σ]/n)·eff[σ][1], so the per-agent observation vector
//     is fully described by k₁ ~ Binomial(h, q₁) (and k₀ = h − k₁), drawn
//     from one cached sampler shared by the whole round.
//   - Complete graph, k-symbol alphabet: the same mixture has k components
//     q_j = Σ_σ (counts[σ]/n)·eff[σ][j], and the observation vector is one
//     Multinomial(h, q) draw per agent from a cached conditional-binomial
//     batcher (rng.MultinomialDist) — the expensive first-component setup is
//     paid once per round instead of once per agent.
//   - Graph topology: agent i samples its neighborhood N(i), so the law is
//     per-agent: a count-stencil pass over i's CSR adjacency row tallies the
//     neighborhood displays, and q⁽ⁱ⁾_j = Σ_σ (cnt[σ]/deg)·eff[σ][j] feeds a
//     per-agent binomial (binary) or multinomial (k-ary) draw. A per-chunk
//     memo keyed on the neighborhood tally reuses the binomial setup across
//     agents with identical tallies — on regular graphs near convergence
//     that is almost all of them.
//
// The population is a VecPopulation and each round runs two bulk passes —
// count displays (or publish them, on a graph), then draw the per-agent law
// and update state in place. A protocol keeps its population as flat
// slices with kernels that consume the law directly; the kernel is the
// protocol's only definition.
//
// Determinism is chunk-based rather than agent-based: the population is cut
// into fixed VecChunkSize-agent chunks, each owning a private RNG stream
// derived from the run seed and the chunk index. A worker processes whole
// chunks, all draws for a chunk come from its own stream in index order,
// and cross-chunk merges are integer sums, so results are bit-identical for
// any Workers/GOMAXPROCS setting — the worker→chunk assignment only decides
// who executes a chunk, never what it draws.
//
// Fault schedules run on this path too: noise swaps and drift repoint the
// effective rows the law is rebuilt from every round; crash faults mask the
// crashed lanes (their stale display snapshot feeds the law, and kernels
// skip their draws and updates); corruption rewrites agent state in place
// through CorruptAt, and churn rebuilds an agent through InitRange, both
// single-threaded at the round top from the fault stream, so their timing
// and selection are deterministic in the seed.

import (
	"noisypull/internal/graph"
	"noisypull/internal/rng"
)

// VecChunkSize is the number of agents per deterministic sharding chunk.
// The value fixes the draw partition and therefore the trajectory of every
// vectorized run: changing it is a break of bit-compatibility with recorded
// seeds (golden traces, published experiment tables). 4096 agents keep a
// chunk's hot state well inside L1/L2 while giving n = 10⁶ runs ~244 chunks
// of parallel slack.
const VecChunkSize = 4096

// vecStreamID is the derivation base for per-chunk streams; chunk c uses
// DeriveSeed(seed, vecStreamID + c). The base is far from the other engine
// stream salts, so chunk streams never collide with the counts, fault or
// AsyncRunner schedule streams under the same seed.
const vecStreamID uint64 = 0x76656363_5eed0005

// VecObs is the round's shared observation law, built once at the Phase A
// barrier and read concurrently by every worker during Phase B. Kernels
// consume it through H and the accessors (P1, K1, Counts, Crashed), which
// dispatch on the population mode: exactly one of the complete-graph laws
// (bin for binary, mult for k-ary) or the per-neighborhood law (nbr) is
// set. Outside the engine, FixedObs builds one.
type VecObs struct {
	// H is the per-round sample count.
	H int
	// q1 is the probability that a single observation reads symbol 1 after
	// the (composed) noise channel — complete graph, binary alphabet only.
	q1 float64
	// bin is an initialized Binomial(H, q1) sampler; Sample is read-only,
	// so workers share it with their chunk streams.
	bin *rng.BinomialDist
	// mult is the cached Multinomial(H, q) batcher of the per-symbol
	// observation law q — complete graph, alphabet > 2 only.
	mult *rng.MultinomialDist
	// nbr carries the per-agent neighborhood laws on graph-topology runs
	// and FixedObs's counts; nil on the complete graph.
	nbr *vecNbrObs
	// crashUntil aliases the fault engine's crash bookkeeping when the
	// schedule contains crash events (nil otherwise): agent i is crashed —
	// frozen display, no observations, no update — while crashUntil[i] >
	// round, the round being executed.
	crashUntil []int
	round      int
}

// FixedObs returns a law whose every draw is counts (length |Σ|, summing to
// the law's H): K1 returns counts[1], Counts copies counts, and P1 is the
// share of ones. No agent is crashed. Tests step a kernel on it with
// hand-picked observations.
func FixedObs(counts []int) *VecObs {
	h := 0
	for _, c := range counts {
		h += c
	}
	return &VecObs{H: h, nbr: &vecNbrObs{fixed: counts}}
}

// Crashed reports whether agent i is crash-frozen this round. Kernels must
// skip the draws and the state update of a crashed agent and tally its
// current opinion unchanged.
func (o *VecObs) Crashed(i int) bool {
	return o.crashUntil != nil && o.crashUntil[i] > o.round
}

// P1 returns agent i's per-observation probability of reading symbol 1
// (binary alphabets; the voter kernel's Bernoulli marginal).
func (o *VecObs) P1(i int) float64 {
	if o.nbr != nil {
		return o.nbr.p1(i)
	}
	return o.q1
}

// K1 draws the number of 1-observations among agent i's H samples (binary
// alphabets), using the shared round sampler on the complete graph or the
// agent's neighborhood law on a graph.
func (o *VecObs) K1(i int, r *rng.Stream) int {
	if o.nbr != nil {
		return o.nbr.k1(i, r)
	}
	return o.bin.Sample(r)
}

// maxJointSupport caps the support size completeLaw will ask
// PrecomputeJoint to enumerate: C(h+d-1, d-1) outcomes — 165 for the h=8,
// d=4 shapes the k-ary protocols run at — rebuilt with the law and shared by
// every agent that draws from it.
const maxJointSupport = 4096

// Counts draws agent i's per-symbol observation counts into out (length
// |Σ|), the k-ary counterpart of K1. On the complete graph the shared
// sampler draws through its joint alias table when completeLaw could build
// one (same law, one alias draw per agent instead of d−1 conditional
// binomials).
func (o *VecObs) Counts(i int, r *rng.Stream, out []int) {
	if o.nbr != nil {
		o.nbr.counts(i, r, out)
		return
	}
	o.mult.SampleJoint(r, out)
}

// vecNbrObs derives per-agent observation laws from a CSR graph: Phase A
// publishes every agent's display into displays, and Phase B tallies each
// agent's neighborhood with a count-stencil pass over its adjacency row,
// mixes the tally through the effective noise rows, and draws from the
// resulting binomial/multinomial. All mutable per-draw state is chunk-local
// (one worker owns a chunk), so concurrent Phase B workers never share it.
//
// A FixedObs law sets fixed instead: every draw then returns that count
// vector.
type vecNbrObs struct {
	fixed    []int         // fixed observation counts; nil on a graph
	off, adj []int32       // the topology's CSR arrays
	displays []uint8       // displays[v] = symbol agent v shows this round
	effRows  [][]float64   // aliases the runner's rows: noise faults repoint entries
	d, h     int           // alphabet, samples per round
	chunks   []vecNbrChunk // per-chunk scratch + law memo, indexed i/VecChunkSize
	// guide: memo entries build their guide table. Only on a regular graph
	// of degree < 64, where every reachable tally has its own slot, so an
	// entry serves every draw of its tally until the next noise epoch; on
	// other graphs slots are shared and rebuilt between draws.
	guide bool
}

// vecNbrChunk is one chunk's private neighborhood-law state. bins is a
// direct-mapped memo of Binomial setups keyed by (degree, ones-tally),
// indexed by ones modulo its size: on a regular graph the degree is constant
// and ones ranges over [0, deg], so every reachable law gets its own slot
// and the expensive Init (a math.Pow) is paid once per noise epoch rather
// than once per agent. Entries stay valid across rounds — the law depends
// on the tally, not on which agents produced it — until a noise fault
// repoints the effective rows, which resetRound detects via the epoch. The
// pad keeps the heavily written fields of adjacent chunks off one cache
// line.
type vecNbrChunk struct {
	binKeys []int64 // (degree << 32) | ones per slot; -1 = empty
	bins    []rng.BinomialDist
	epoch   uint64 // noise epoch the memo was built under
	mult    rng.MultinomialDist
	cnt     []int     // k-ary tally scratch
	w       []float64 // k-ary mixture weights scratch
	_       [64]byte
}

// maxNbrSlots caps a chunk's binomial memo (vecNbrChunk.bins).
const maxNbrSlots = 64

func newVecNbrObs(g *graph.Graph, effRows [][]float64, d, h, numChunks int) *vecNbrObs {
	nb := &vecNbrObs{
		displays: make([]uint8, g.N()),
		effRows:  effRows,
		d:        d,
		h:        h,
		chunks:   make([]vecNbrChunk, numChunks),
	}
	nb.off, nb.adj = g.CSR()
	// One memo slot per reachable ones-tally on a regular graph, capped so
	// high-degree graphs direct-map (ones mod slots) instead of ballooning.
	slots := g.MaxDegree() + 1
	if slots > maxNbrSlots {
		slots = maxNbrSlots
	}
	nb.guide = g.MinDegree() == g.MaxDegree() && g.MaxDegree() < maxNbrSlots
	if slots < 1 {
		slots = 1
	}
	for c := range nb.chunks {
		nb.chunks[c].binKeys = make([]int64, slots)
		nb.chunks[c].bins = make([]rng.BinomialDist, slots)
		for s := range nb.chunks[c].binKeys {
			nb.chunks[c].binKeys[s] = -1
		}
		nb.chunks[c].cnt = make([]int, d)
		nb.chunks[c].w = make([]float64, d)
	}
	return nb
}

// resetRound invalidates chunk law memos whose noise epoch is stale: the
// memoized laws depend only on the (degree, ones) key and the effective
// rows, so they survive display changes and are only rebuilt after a noise
// fault repoints the rows.
func (nb *vecNbrObs) resetRound(epoch uint64) {
	for c := range nb.chunks {
		ch := &nb.chunks[c]
		if ch.epoch == epoch {
			continue
		}
		for s := range ch.binKeys {
			ch.binKeys[s] = -1
		}
		ch.epoch = epoch
	}
}

// tallyBinary counts the 1-displays in agent i's neighborhood.
func (nb *vecNbrObs) tallyBinary(i int) (deg, ones int) {
	row := nb.adj[nb.off[i]:nb.off[i+1]]
	for _, v := range row {
		ones += int(nb.displays[v])
	}
	return len(row), ones
}

// p1 is agent i's per-observation probability of reading 1: the
// neighborhood display mixture pushed through the effective channel.
func (nb *vecNbrObs) p1(i int) float64 {
	if nb.fixed != nil {
		return float64(nb.fixed[1]) / float64(nb.fixed[0]+nb.fixed[1])
	}
	deg, ones := nb.tallyBinary(i)
	return (float64(ones)*nb.effRows[1][1] + float64(deg-ones)*nb.effRows[0][1]) / float64(deg)
}

// k1 draws Binomial(h, p1(i)) through the chunk's memoized sampler.
func (nb *vecNbrObs) k1(i int, r *rng.Stream) int {
	if nb.fixed != nil {
		return nb.fixed[1]
	}
	c := &nb.chunks[i/VecChunkSize]
	deg, ones := nb.tallyBinary(i)
	key := int64(deg)<<32 | int64(ones)
	slot := ones % len(c.binKeys)
	if c.binKeys[slot] != key {
		q1 := (float64(ones)*nb.effRows[1][1] + float64(deg-ones)*nb.effRows[0][1]) / float64(deg)
		c.bins[slot].Init(nb.h, q1)
		if nb.guide {
			c.bins[slot].PrecomputeGuide()
		}
		c.binKeys[slot] = key
	}
	return c.bins[slot].Sample(r)
}

// counts draws agent i's k-ary observation vector: tally the neighborhood
// displays, mix through the effective rows, and draw one multinomial.
func (nb *vecNbrObs) counts(i int, r *rng.Stream, out []int) {
	if nb.fixed != nil {
		copy(out, nb.fixed)
		return
	}
	c := &nb.chunks[i/VecChunkSize]
	cnt := c.cnt
	for j := range cnt {
		cnt[j] = 0
	}
	for _, v := range nb.adj[nb.off[i]:nb.off[i+1]] {
		cnt[nb.displays[v]]++
	}
	for j := 0; j < nb.d; j++ {
		acc := 0.0
		for sigma := 0; sigma < nb.d; sigma++ {
			acc += float64(cnt[sigma]) * nb.effRows[sigma][j]
		}
		c.w[j] = acc
	}
	c.mult.Init(nb.h, c.w)
	c.mult.Sample(r, out)
}

// VecSpec carries everything a protocol needs to build and (re)initialize a
// struct-of-arrays population.
type VecSpec struct {
	// Env is the protocol environment. Env.N is the size of the population
	// the protocol runs in, which the protocol's parameters depend on; N is
	// the length of this population.
	Env Env
	// N is the number of agents to allocate (Config.N for the engine).
	// Agent i has id i; kernels whose fresh state depends on the id (the
	// parity start of majority and TrustBit) read i.
	N int
	// Sources1 and Sources0 give the role layout: agents [0, Sources1) are
	// 1-sources, [Sources1, Sources1+Sources0) are 0-sources, the rest are
	// non-sources. Identities are immaterial under uniform sampling.
	Sources1, Sources0 int
	// Correct is the plurality source preference; populations use it to
	// derive the adversary's wrong opinion.
	Correct int
}

// VecPopulation is the per-agent engine's population, advanced by bulk
// kernels over index ranges: the protocol's struct-of-arrays kernel, which
// defines the protocol. Range methods are called for chunk-aligned [lo, hi)
// slices; distinct ranges are processed concurrently, so a kernel must only
// touch state of agents inside its range. That includes InitRange at New
// and Reset, which build distinct chunks concurrently on the worker pool,
// and the CorruptAt calls InitRange makes. Fault events call CorruptAt,
// and InitRange on the one-agent range [i, i+1), single-threaded between
// rounds with the engine's fault stream, so those calls may touch any
// agent state without synchronization.
type VecPopulation interface {
	// InitRange (re)builds agents [lo, hi) as fresh arrivals: role
	// assignment, seeded initialization, then the corruption adversary
	// under mode, drawing any needed randomness from r in agent-index
	// order. New and Reset pass Config.Corruption over every chunk,
	// distinct chunks concurrently; churn rebuilds one non-source under the
	// event's mode. With CorruptNone it
	// must draw nothing for corruption.
	InitRange(lo, hi int, mode CorruptionMode, r *rng.Stream)
	// CountRange accumulates the current display symbol of agents [lo, hi)
	// into counts (length |Σ|). It must add, not overwrite.
	CountRange(lo, hi int, counts []int)
	// DisplayRange writes the current display symbol of agents [lo, hi)
	// into out[lo:hi] (out has the population length); graph-topology runs
	// use it to publish the display vector the neighborhood laws read.
	DisplayRange(lo, hi int, out []uint8)
	// StepRange delivers one round of observations to agents [lo, hi),
	// updating their state in place, and returns the number of agents in
	// the range holding opinion 1 afterwards. Kernels must honor the crash
	// mask: a crashed agent (obs.Crashed(i)) draws nothing, keeps its
	// state, and still tallies its current opinion.
	StepRange(lo, hi int, obs *VecObs, r *rng.Stream) int
	// State returns agent i's current display symbol and opinion.
	State(i int) (display, opinion int)
	// SnapshotRange serializes agents [lo, hi).
	SnapshotRange(w *SnapWriter, lo, hi int)
	// RestoreRange deserializes agents [lo, hi), validating every field.
	RestoreRange(rd *SnapReader, lo, hi int) error
	// CorruptAt applies the protocol's corruption adversary to agent i,
	// including its role checks (which roles the adversary may touch). The
	// engine calls it for mid-run corruption, and InitRange for round-0
	// corruption.
	CorruptAt(i int, mode CorruptionMode, wrong int, r *rng.Stream)
}

// VecMarginalOnly is implemented by binary kernels that read a round's law
// only through VecObs.P1 and never draw VecObs.K1, such as the voter
// kernel, whose adoption is one Bernoulli(q₁). The engine builds no guide
// table for their rounds' sampler: only K1 draws read it.
type VecMarginalOnly interface {
	MarginalOnly()
}

// guideMinAgents is the smallest population whose rounds build the guide
// table of the shared binary sampler (rng.BinomialDist.PrecomputeGuide).
// The build costs about as much as 20–30 walked draws, so a smaller round
// draws too few times to pay for it.
const guideMinAgents = 64

// VecWeakOpinions is optionally implemented by populations whose protocol
// exposes a weak opinion (SF's and SSF's Ŷ); Runner.AgentWeakOpinion uses
// it.
type VecWeakOpinions interface {
	WeakOpinionAt(i int) int
}

// numVecChunks returns the chunk count for an n-agent population.
func numVecChunks(n int) int { return (n + VecChunkSize - 1) / VecChunkSize }

// chunkBounds returns chunk c's agent range.
func (r *Runner) chunkBounds(c int) (lo, hi int) {
	lo = c * VecChunkSize
	hi = lo + VecChunkSize
	if hi > r.cfg.N {
		hi = r.cfg.N
	}
	return lo, hi
}

// stepVec executes one synchronous round on the per-agent engine. Phase A
// counts displays in per-worker shards (complete graph) or publishes the
// display vector (topology), each worker folding in the crash mask over its
// own chunks; the barrier builds the round's observation law; Phase B steps
// every chunk with its own stream. It allocates nothing in steady state.
func (r *Runner) stepVec() int {
	if r.pool != nil {
		r.pool.dispatch(phaseSnapshot)
	} else {
		r.vecCountRange(0)
	}
	round := r.curRound
	crashUntil := r.fs.crashMask(round)
	if r.vecNbr != nil {
		r.vecNbr.resetRound(r.noiseEpoch)
		r.vecObs = VecObs{H: r.cfg.H, nbr: r.vecNbr, crashUntil: crashUntil, round: round}
	} else {
		for j := range r.counts {
			r.counts[j] = 0
		}
		for w := range r.scratch {
			for j, c := range r.scratch[w].shard {
				r.counts[j] += c
			}
		}
		r.completeLaw(crashUntil, round)
		if r.guide {
			// Not in completeLaw: the async scheduler rebuilds the law
			// there and then draws once.
			r.binDist.PrecomputeGuide()
		}
	}

	if r.pool != nil {
		r.pool.dispatch(phaseObserve)
	} else {
		r.vecStepRange(0)
	}
	ones := 0
	for w := range r.scratch {
		ones += r.scratch[w].partial
	}
	if r.correct == 1 {
		return ones
	}
	return r.cfg.N - ones
}

// completeLaw builds r.vecObs, the complete-graph observation law of the
// display counts in r.counts. One observation is a uniform display pushed
// through the composed channel: a draw from the counts-weighted mixture of
// effective rows. stepVec calls it once per round; AsyncRunner before the
// first activation after a display changed.
func (r *Runner) completeLaw(crashUntil []int, round int) {
	if r.env.Alphabet == 2 {
		q1 := (float64(r.counts[0])*r.effRows[0][1] + float64(r.counts[1])*r.effRows[1][1]) / float64(r.cfg.N)
		r.binDist.Init(r.cfg.H, q1)
		r.vecObs = VecObs{H: r.cfg.H, q1: q1, bin: &r.binDist, crashUntil: crashUntil, round: round}
		return
	}
	d := r.env.Alphabet
	invN := 1 / float64(r.cfg.N)
	for j := 0; j < d; j++ {
		acc := 0.0
		for sigma := 0; sigma < d; sigma++ {
			acc += float64(r.counts[sigma]) * r.effRows[sigma][j]
		}
		r.vecQ[j] = acc * invN
	}
	r.multDist.Init(r.cfg.H, r.vecQ)
	// The sampler is shared by every agent that draws before the next
	// rebuild, so precomputing its draw tables here — joint alias when the
	// support is small, cached conditional binomials otherwise — amortizes
	// across them (and, in a round, happens before the concurrent Phase B
	// reads it).
	if !r.multDist.PrecomputeJoint(maxJointSupport) {
		r.multDist.PrecomputeCond()
	}
	r.vecObs = VecObs{H: r.cfg.H, mult: &r.multDist, crashUntil: crashUntil, round: round}
}

// vecCountRange is Phase A for worker w: accumulate display counts of the
// worker's chunks into its shard — or, on a graph, publish their displays
// into the shared display vector (chunks are disjoint index ranges, so the
// writes never overlap). Chunk→worker assignment is a static stride; it
// affects only who processes a chunk, and integer sums commute, so the
// merged state is independent of the worker count.
func (r *Runner) vecCountRange(w int) {
	s := &r.scratch[w]
	for j := range s.shard {
		s.shard[j] = 0
	}
	crashUntil := r.fs.crashMask(r.curRound)
	for c := w; c < r.numChunks; c += r.workers {
		lo, hi := r.chunkBounds(c)
		if r.vecNbr != nil {
			r.pop.DisplayRange(lo, hi, r.vecNbr.displays)
		} else {
			r.pop.CountRange(lo, hi, s.shard)
		}
		if crashUntil != nil {
			r.freezeCrashed(lo, hi, crashUntil, s.shard)
		}
	}
}

// freezeCrashed makes the agents of [lo, hi) that are crashed this round
// show the display they froze with instead of their live one: in the
// published display vector on a graph, where their neighbors read it, and
// otherwise in the worker's count shard (the two differ only when a
// corruption fault rewrote a crashed agent's state mid-freeze).
func (r *Runner) freezeCrashed(lo, hi int, crashUntil, shard []int) {
	round, frozen := r.curRound, r.fs.frozen
	for i := lo; i < hi; i++ {
		if crashUntil[i] <= round {
			continue
		}
		if r.vecNbr != nil {
			r.vecNbr.displays[i] = uint8(frozen[i])
		} else {
			live, _ := r.pop.State(i)
			shard[live]--
			shard[frozen[i]]++
		}
	}
}

// vecInitRange rebuilds worker w's chunks for New and Reset: it reseeds
// each chunk's stream from the run seed and builds the chunk's agents from
// it, so a chunk's draws do not depend on which worker runs it, and clears
// the chunk's crash bookkeeping.
func (r *Runner) vecInitRange(w int) {
	crashed := r.fs != nil && r.fs.crashUntil != nil
	for c := w; c < r.numChunks; c += r.workers {
		r.chunkStreams[c].Reseed(rng.DeriveSeed(r.cfg.Seed, vecStreamID+uint64(c)))
		lo, hi := r.chunkBounds(c)
		r.pop.InitRange(lo, hi, r.cfg.Corruption, &r.chunkStreams[c])
		if crashed {
			clear(r.fs.crashUntil[lo:hi])
			clear(r.fs.frozen[lo:hi])
		}
	}
}

// vecStepRange is Phase B for worker w: step the worker's chunks, each with
// its private stream, accumulating the opinion-1 tally.
func (r *Runner) vecStepRange(w int) {
	s := &r.scratch[w]
	ones := 0
	for c := w; c < r.numChunks; c += r.workers {
		lo, hi := r.chunkBounds(c)
		ones += r.pop.StepRange(lo, hi, &r.vecObs, &r.chunkStreams[c])
	}
	s.partial = ones
}
