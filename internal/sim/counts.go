package sim

import (
	"fmt"
	"math"

	"noisypull/internal/rng"
)

// countsStreamID salts the seed of the counts engine's single RNG stream so
// it is independent of the other engine streams under the same seed.
const countsStreamID = 0x636e7473_5eed0001 // "cnts" ++ salt

// rowSumTol is the tolerance on a TransitionRow's total probability mass;
// rows computed from incomplete-beta tails carry O(1e-12) float error, so a
// larger deviation indicates a protocol bug.
const rowSumTol = 1e-6

// countsEngine is the BackendCounts round executor: the population is a
// vector of counts over the protocol's agent-state equivalence classes.
// Each round it
//
//  1. derives the display-count vector from class counts (O(K)),
//  2. pushes it through the effective channel into the per-observation
//     distribution q[j] = Σ_σ disp[σ]·N[σ][j] / n (O(|Σ|²)) — the same
//     mixture the per-agent engine draws from,
//  3. asks the protocol for each occupied class's transition row and
//     multinomially partitions the class count over successor classes
//     (O(K²) binomial draws).
//
// This is exact, not mean-field: given the display snapshot, all agents
// observe iid and transition independently, so per-class successor counts
// are multinomial. Total round cost is independent of n.
//
// The engine is single-threaded (per-round work is tiny) and owns one RNG
// stream, so runs are deterministic in the seed alone.
type countsEngine struct {
	cp     CountableProtocol
	k      int // number of state classes
	stream rng.Stream

	counts []int // agents per class
	next   []int // successor accumulation scratch
	part   []int // per-class multinomial partition scratch

	row  []float64 // transition-row scratch
	disp []int     // per-symbol display counts
	obs  []float64 // per-observation symbol distribution

	classDisplay []int
	classOpinion []int

	// initErr records a bad initial population (InitialCounts not summing
	// to n or giving a negative class size, or a bad round-0 corrupt row);
	// Run surfaces it before the first round.
	initErr error
}

// newCountsEngine validates the protocol's class geometry against the
// environment and provisions all per-round scratch.
func newCountsEngine(cp CountableProtocol, env Env) (*countsEngine, error) {
	k := cp.NumStates(env)
	if k < 1 {
		return nil, fmt.Errorf("sim: countable protocol reports %d state classes", k)
	}
	ce := &countsEngine{
		cp:           cp,
		k:            k,
		counts:       make([]int, k),
		next:         make([]int, k),
		part:         make([]int, k),
		row:          make([]float64, k),
		disp:         make([]int, env.Alphabet),
		obs:          make([]float64, env.Alphabet),
		classDisplay: make([]int, k),
		classOpinion: make([]int, k),
	}
	for s := 0; s < k; s++ {
		sym := cp.DisplayOf(env, s)
		if sym < 0 || sym >= env.Alphabet {
			return nil, fmt.Errorf("sim: class %d displays symbol %d outside alphabet [0, %d)", s, sym, env.Alphabet)
		}
		op := cp.OpinionOf(env, s)
		if op != 0 && op != 1 {
			return nil, fmt.Errorf("sim: class %d reports opinion %d outside {0, 1}", s, op)
		}
		ce.classDisplay[s] = sym
		ce.classOpinion[s] = op
	}
	return ce, nil
}

// reset rewinds the engine to the initial population of (cfg, seed): the
// stream is re-derived, the protocol repopulates the class counts, and
// round-0 corruption hits every agent, exactly as construction does.
func (ce *countsEngine) reset(cfg *Config, env Env, correct int) {
	ce.stream.Reseed(rng.DeriveSeed(cfg.Seed, countsStreamID))
	for s := range ce.counts {
		ce.counts[s] = 0
	}
	ce.cp.InitialCounts(env, cfg.Sources1, cfg.Sources0, ce.counts)
	total := 0
	ce.initErr = nil
	for s, c := range ce.counts {
		if c < 0 {
			ce.initErr = fmt.Errorf("sim: InitialCounts put %d agents in class %d", c, s)
			return
		}
		total += c
	}
	if total != cfg.N {
		ce.initErr = fmt.Errorf("sim: InitialCounts placed %d agents, population is %d", total, cfg.N)
		return
	}
	if cfg.Corruption != CorruptNone {
		if _, err := ce.corrupt(env, 1, cfg.Corruption, 1-correct, &ce.stream); err != nil {
			ce.initErr = fmt.Errorf("sim: round-0 corruption: %w", err)
		}
	}
}

// corrupt is the counts backend's one corruption rule: every class loses
// Binomial(count, fraction) agents to the adversary, and the hit agents are
// multinomially partitioned over the protocol's CorruptRow —
// distribution-identical to selecting and corrupting individual agents. It
// returns the number of agents hit. Round-0 corruption passes fraction 1
// and the engine's stream, a KindCorrupt event its fraction and the fault
// stream. Binomial(c, 1) draws nothing and neither does a one-hot row, so
// wrong-consensus corruption consumes no randomness.
func (ce *countsEngine) corrupt(env Env, fraction float64, mode CorruptionMode, wrong int, stream *rng.Stream) (int, error) {
	hit := 0
	for s := range ce.next {
		ce.next[s] = 0
	}
	for s, c := range ce.counts {
		if c == 0 {
			continue
		}
		n := stream.Binomial(c, fraction)
		ce.next[s] += c - n
		if n == 0 {
			continue
		}
		ce.cp.CorruptRow(env, s, mode, wrong, ce.row)
		if err := checkRow(ce.row, s, "corrupt row"); err != nil {
			return 0, err
		}
		stream.Multinomial(n, ce.row, ce.part)
		for t, v := range ce.part {
			ce.next[t] += v
		}
		hit += n
	}
	ce.counts, ce.next = ce.next, ce.counts
	return hit, nil
}

// correctCount tallies the agents currently holding the correct opinion.
func (ce *countsEngine) correctCount(correct int) int {
	total := 0
	for s, c := range ce.counts {
		if ce.classOpinion[s] == correct {
			total += c
		}
	}
	return total
}

// step executes one synchronous round over class counts and returns the
// number of agents holding the correct opinion at its end.
func (ce *countsEngine) step(r *Runner) (int, error) {
	if ce.initErr != nil {
		return 0, ce.initErr
	}
	env := r.env
	d := env.Alphabet

	// Display snapshot from class counts.
	for j := range ce.disp {
		ce.disp[j] = 0
	}
	for s, c := range ce.counts {
		ce.disp[ce.classDisplay[s]] += c
	}

	// Per-observation distribution: one uniform sample pushed through the
	// effective channel is the counts-weighted mixture of its rows — the
	// identical mixture the per-agent engine samples from.
	invN := 1 / float64(r.cfg.N)
	for j := 0; j < d; j++ {
		acc := 0.0
		for sigma := 0; sigma < d; sigma++ {
			acc += float64(ce.disp[sigma]) * r.effRows[sigma][j]
		}
		ce.obs[j] = acc * invN
	}

	// Partition every occupied class over its successors.
	for s := range ce.next {
		ce.next[s] = 0
	}
	for s, c := range ce.counts {
		if c == 0 {
			continue
		}
		ce.cp.TransitionRow(env, s, ce.obs, ce.row)
		if err := checkRow(ce.row, s, "transition row"); err != nil {
			return 0, err
		}
		ce.stream.Multinomial(c, ce.row, ce.part)
		for t, v := range ce.part {
			ce.next[t] += v
		}
	}
	ce.counts, ce.next = ce.next, ce.counts
	return ce.correctCount(r.correct), nil
}

// checkRow validates class s's probability row (a TransitionRow or a
// CorruptRow, named by what): a NaN or clearly negative entry, or a total
// off 1 by more than rowSumTol, is an error naming the class. Negative float
// dust from tail computations is clamped to 0 in place.
func checkRow(row []float64, s int, what string) error {
	sum := 0.0
	for t, p := range row {
		if math.IsNaN(p) || p < -rowSumTol {
			return fmt.Errorf("class %d %s has invalid probability %v at class %d", s, what, p, t)
		}
		if p < 0 {
			row[t] = 0
			continue
		}
		sum += p
	}
	if math.Abs(sum-1) > rowSumTol {
		return fmt.Errorf("class %d %s sums to %v, want 1", s, what, sum)
	}
	return nil
}
