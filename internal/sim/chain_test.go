// Exact Markov-chain oracles for the asynchronous scheduler and the
// synchronous engine.
//
// Under AsyncRunner one activation picks an agent uniformly at random, draws
// its h observations from the current displays of its sampling set (the
// whole population, itself included, on the complete graph; its neighbours
// on a graph) through the effective channel, and updates that agent alone.
// At tiny n the population is then a finite Markov chain: over class-count
// vectors for a countable protocol on the complete graph, and over opinion
// vectors for the voter on a ring. TestAsyncChainOracle evolves the exact
// distribution through n activations per parallel round, and
// TestSyncChainOracle through synchronous rounds that move every agent at
// once; both chi-square the engine's FinalCorrect histogram against it. The
// kernels never read TransitionRow, so agreement is independent evidence.
package sim_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

const (
	chainTrials = 20000
	chainAlpha  = 1e-4
)

// chainState is a class-count vector; the countable protocols used here
// have at most six classes.
type chainState [6]int

// completeChainLaw returns the exact law of the number of agents holding
// the correct opinion after the given parallel rounds of asynchronous
// activation on the complete graph. With selfSample false the activated
// agent samples only the other n−1 agents: the negative control.
func completeChainLaw(cfg sim.Config, rounds int, selfSample bool) []float64 {
	cp := cfg.Protocol.(sim.CountableProtocol)
	env := cfg.Env()
	n, k, d := cfg.N, cp.NumStates(env), env.Alphabet
	eff := matrixRows(cfg.Noise)
	correct := cfg.CorrectOpinion()

	var init chainState
	cp.InitialCounts(env, cfg.Sources1, cfg.Sources0, init[:k])
	dist := map[chainState]float64{init: 1}
	q := make([]float64, d)
	row := make([]float64, k)
	for a := 0; a < n*rounds; a++ {
		next := make(map[chainState]float64, len(dist))
		for c, p := range dist {
			displays := make([]int, d)
			for s := 0; s < k; s++ {
				displays[cp.DisplayOf(env, s)] += c[s]
			}
			for s := 0; s < k; s++ {
				if c[s] == 0 {
					continue
				}
				set, size := append([]int(nil), displays...), n
				if !selfSample {
					set[cp.DisplayOf(env, s)]--
					size--
				}
				for j := range q {
					q[j] = 0
					for sigma, cnt := range set {
						q[j] += float64(cnt) / float64(size) * eff[sigma][j]
					}
				}
				cp.TransitionRow(env, s, q, row)
				pick := p * float64(c[s]) / float64(n)
				for to, pr := range row {
					if pr == 0 {
						continue
					}
					moved := c
					moved[s]--
					moved[to]++
					next[moved] += pick * pr
				}
			}
		}
		dist = next
	}
	law := make([]float64, n+1)
	for c, p := range dist {
		right := 0
		for s := 0; s < k; s++ {
			if cp.OpinionOf(env, s) == correct {
				right += c[s]
			}
		}
		law[right] += p
	}
	return law
}

// ringVoterChainLaw is the exact FinalCorrect law of the voter on topology
// g under asynchronous activation, tracked as the vector of opinions (bit i
// is agent i's). Agents [0, Sources1) are 1-sources; a non-source adopts
// one uniformly chosen observation, so it moves to opinion 1 with the
// probability q₁ that a single observation reads 1. With withSelf the
// activated agent also samples itself: the negative control.
func ringVoterChainLaw(cfg sim.Config, rounds int, withSelf bool) []float64 {
	g := cfg.Topology
	n := cfg.N
	eff := matrixRows(cfg.Noise)
	start := 1<<cfg.Sources1 - 1
	dist := make([]float64, 1<<n)
	dist[start] = 1
	for a := 0; a < n*rounds; a++ {
		next := make([]float64, len(dist))
		for st, p := range dist {
			if p == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				pick := p / float64(n)
				if i < cfg.Sources1+cfg.Sources0 {
					next[st] += pick
					continue
				}
				set := neighbourSet(g, i)
				if withSelf {
					set = append(set, i)
				}
				q1 := 0.0
				for _, v := range set {
					q1 += eff[st>>v&1][1] / float64(len(set))
				}
				next[st|1<<i] += pick * q1
				next[st&^(1<<i)] += pick * (1 - q1)
			}
		}
		dist = next
	}
	law := make([]float64, n+1)
	for st, p := range dist {
		ones := 0
		for i := 0; i < n; i++ {
			ones += st >> i & 1
		}
		law[ones] += p
	}
	return law
}

// chainRunner is what the chain tests drive: Runner and AsyncRunner.
type chainRunner interface {
	Reset(seed uint64)
	Run() (*sim.Result, error)
}

// finalCorrect runs chainTrials seeds on one Reset runner and histograms
// Result.FinalCorrect. Every run must last exactly the given rounds.
func finalCorrect(t *testing.T, r chainRunner, n, rounds int) []int {
	t.Helper()
	hist := make([]int, n+1)
	for s := 1; s <= chainTrials; s++ {
		r.Reset(uint64(s))
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != rounds {
			t.Fatalf("seed %d: ran %d rounds, want %d", s, res.Rounds, rounds)
		}
		hist[res.FinalCorrect]++
	}
	return hist
}

// asyncFinalCorrect runs cfg for exactly the given rounds (MaxRounds =
// StabilityWindow, so the run cannot stop early) on an async runner.
func asyncFinalCorrect(t *testing.T, cfg sim.Config, rounds int) []int {
	t.Helper()
	cfg.MaxRounds, cfg.StabilityWindow = rounds, rounds
	r, err := sim.NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return finalCorrect(t, r, cfg.N, rounds)
}

// chainChiSquare compares a FinalCorrect histogram with an exact law.
func chainChiSquare(hist []int, law []float64) (stat, crit float64) {
	total := 0
	for _, c := range hist {
		total += c
	}
	expected := make([]float64, len(law))
	for i, p := range law {
		expected[i] = float64(total) * p
	}
	stat, df := stats.ChiSquare(hist, expected, 5)
	return stat, stats.ChiSquareCritical(df, chainAlpha)
}

type chainCase struct {
	name   string
	cfg    sim.Config
	rounds int
	// law returns the exact chain's law, or with exact false the negative
	// control's, which the same histogram must fail.
	law func(cfg sim.Config, rounds int, exact bool) []float64
}

func chainCases(t *testing.T) []chainCase {
	t.Helper()
	complete := func(p sim.Protocol, h int, delta float64) sim.Config {
		return sim.Config{
			N: 4, H: h, Sources1: 1,
			Noise:    uniformNoise(t, p.Alphabet(), delta),
			Protocol: p,
		}
	}
	cases := []chainCase{
		{"voter", complete(protocol.Voter{}, 3, 0.2), 2, completeChainLaw},
		{"majority", complete(protocol.MajorityRule{}, 3, 0.2), 2, completeChainLaw},
		{"trustbit", complete(protocol.TrustBit{}, 2, 0.15), 2, completeChainLaw},
	}
	ring, err := graph.Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.Config{
		N: 6, H: 3, Sources1: 1,
		Noise:    uniformNoise(t, 2, 0.2),
		Protocol: protocol.Voter{},
		Topology: ring,
	}
	cases = append(cases, chainCase{"ring voter", rc, 3, func(cfg sim.Config, rounds int, exact bool) []float64 {
		return ringVoterChainLaw(cfg, rounds, !exact)
	}})
	return cases
}

// TestAsyncChainOracle chi-squares the asynchronous scheduler's
// FinalCorrect law against the exact chain for each protocol's kernel, and
// requires the negative-control law to be rejected by the same histogram.
func TestAsyncChainOracle(t *testing.T) {
	for _, tc := range chainCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			law := tc.law(tc.cfg, tc.rounds, true)
			wrong := tc.law(tc.cfg, tc.rounds, false)
			hist := asyncFinalCorrect(t, tc.cfg, tc.rounds)
			stat, crit := chainChiSquare(hist, law)
			if stat > crit {
				t.Errorf("chi-square %.1f exceeds critical value %.1f (alpha %g): histogram %v, exact law %v", stat, crit, chainAlpha, hist, law)
			}
			wstat, wcrit := chainChiSquare(hist, wrong)
			if wstat <= wcrit {
				t.Errorf("negative-control law accepted: chi-square %.1f <= critical value %.1f", wstat, wcrit)
			}
			t.Logf("chi-square %.1f (negative control %.1f), critical value %.1f", stat, wstat, crit)
		})
	}
}

// The synchronous chain. In a round every agent draws its h observations
// from the displays all agents show at the round's start, and all agents
// update at once, independently given those displays. At n ≤ 6 the
// population is a finite chain over tuples of per-agent states. Agents the
// law cannot tell apart are kept sorted: every agent of a countable
// protocol, whose tuple of classes is then its class-count vector (one
// round splits class s as Multinomial(count[s], TransitionRow(s, q))), and
// the non-sources of SF and SSF on the complete graph. The SF and SSF laws
// are written from Algorithms 1 and 2, not from the kernels.

// outcome is one branch of an exact per-agent law.
type outcome struct {
	state int
	p     float64
}

// addOutcome adds probability p of state to a law, merging equal states.
func addOutcome(law []outcome, state int, p float64) []outcome {
	for i := range law {
		if law[i].state == state {
			law[i].p += p
			return law
		}
	}
	return append(law, outcome{state, p})
}

// vote is the law of a majority of ones against zeros, a fair coin on ties.
func vote(ones, zeros int) []outcome {
	switch {
	case ones > zeros:
		return []outcome{{1, 1}}
	case zeros > ones:
		return []outcome{{0, 1}}
	}
	return []outcome{{0, 0.5}, {1, 0.5}}
}

// agentTuple is a population state: agent i's state code at index i.
type agentTuple [6]int

// syncChain is a synchronous population as a product of per-agent laws.
type syncChain struct {
	n       int
	eff     [][]float64
	correct int
	// sample[i] lists the agents whose displays agent i samples.
	sample [][]int
	// sorted is the index from which agents are exchangeable; the chain
	// keeps them sorted.
	sorted int
	// init[i] is agent i's initial law.
	init    [][]outcome
	display func(i, state, round int) int
	// step is the law of an agent's next state when each of its h
	// observations reads symbol j with probability q[j].
	step    func(i, state, round int, q []float64) []outcome
	opinion func(state int) int
	// corrupt, when set, moves every agent before the observations of
	// corruptRound.
	corruptRound int
	corrupt      func(i, state int) []outcome
}

// spread adds p times the product of the per-agent laws to dist.
func (c *syncChain) spread(dist map[agentTuple]float64, p float64, laws [][]outcome) {
	var key agentTuple
	var walk func(i int, p float64)
	walk = func(i int, p float64) {
		if i == c.n {
			k := key
			sort.Ints(k[c.sorted:c.n])
			dist[k] += p
			return
		}
		for _, o := range laws[i] {
			key[i] = o.state
			walk(i+1, p*o.p)
		}
	}
	walk(0, p)
}

// law returns the exact law of FinalCorrect after the given rounds.
func (c *syncChain) law(rounds int) []float64 {
	dist := map[agentTuple]float64{}
	c.spread(dist, 1, c.init)
	laws := make([][]outcome, c.n)
	displays := make([]int, c.n)
	q := make([]float64, len(c.eff))
	for round := 1; round <= rounds; round++ {
		if round == c.corruptRound {
			next := make(map[agentTuple]float64, len(dist))
			for key, p := range dist {
				for i := range laws {
					laws[i] = c.corrupt(i, key[i])
				}
				c.spread(next, p, laws)
			}
			dist = next
		}
		next := make(map[agentTuple]float64, len(dist))
		for key, p := range dist {
			for i := range displays {
				displays[i] = c.display(i, key[i], round)
			}
			for i := range laws {
				for j := range q {
					q[j] = 0
				}
				for _, v := range c.sample[i] {
					for j, e := range c.eff[displays[v]] {
						q[j] += e / float64(len(c.sample[i]))
					}
				}
				laws[i] = c.step(i, key[i], round, q)
			}
			c.spread(next, p, laws)
		}
		dist = next
	}
	law := make([]float64, c.n+1)
	for key, p := range dist {
		right := 0
		for _, st := range key[:c.n] {
			if c.opinion(st) == c.correct {
				right++
			}
		}
		law[right] += p
	}
	return law
}

// completeSample is the complete graph's sampling sets: every agent, or
// with self false every agent but the sampler (the negative control).
func completeSample(n int, self bool) [][]int {
	sets := make([][]int, n)
	for i := range sets {
		for v := 0; v < n; v++ {
			if v != i || self {
				sets[i] = append(sets[i], v)
			}
		}
	}
	return sets
}

// deterministic is the law of a fixed state.
func deterministic(state int) []outcome { return []outcome{{state, 1}} }

// rowLaw turns a probability row over states into a law.
func rowLaw(row []float64) []outcome {
	var law []outcome
	for s, p := range row {
		if p > 0 {
			law = append(law, outcome{s, p})
		}
	}
	return law
}

// classChain is the chain of a countable protocol on the complete graph:
// an agent's state is its class, which moves by TransitionRow and, under
// corruption, by CorruptRow. Round-0 corruption hits the fresh classes;
// a KindCorrupt event (at most one) hits each agent with its fraction.
func classChain(cfg sim.Config, exact bool) *syncChain {
	cp := cfg.Protocol.(sim.CountableProtocol)
	env := cfg.Env()
	k := cp.NumStates(env)
	correct := cfg.CorrectOpinion()
	wrong := 1 - correct
	corruptRow := func(s int, mode sim.CorruptionMode) []float64 {
		row := make([]float64, k)
		cp.CorruptRow(env, s, mode, wrong, row)
		return row
	}
	c := &syncChain{
		n: cfg.N, eff: matrixRows(cfg.Noise), correct: correct,
		sample:  completeSample(cfg.N, exact),
		display: func(_, s, _ int) int { return cp.DisplayOf(env, s) },
		step: func(_, s, _ int, q []float64) []outcome {
			row := make([]float64, k)
			cp.TransitionRow(env, s, q, row)
			return rowLaw(row)
		},
		opinion: func(s int) int { return cp.OpinionOf(env, s) },
	}
	counts := make([]int, k)
	cp.InitialCounts(env, cfg.Sources1, cfg.Sources0, counts)
	for s, cnt := range counts {
		for ; cnt > 0; cnt-- {
			law := deterministic(s)
			if cfg.Corruption != sim.CorruptNone {
				law = rowLaw(corruptRow(s, cfg.Corruption))
			}
			c.init = append(c.init, law)
		}
	}
	if cfg.Faults != nil {
		ev := cfg.Faults.Events[0]
		c.corruptRound = ev.Round
		c.corrupt = func(_, s int) []outcome {
			row := corruptRow(s, ev.Corruption)
			for t := range row {
				row[t] *= ev.Fraction
			}
			row[s] += 1 - ev.Fraction
			return rowLaw(row)
		}
	}
	return c
}

// sfAgentState is one agent's Algorithm 1 state. The round clock is the
// chain's round. Once the weak opinion forms, the listening counters and
// the first symbol are cleared: nothing reads them again, so this lumps
// states without changing the law.
type sfAgentState struct {
	c1, c0    int // 1-messages and 0-messages counted while listening
	opinion   int
	sub       int // boosting sub-phase
	ones, all int // messages gathered in the current sub-phase
	first     int // alternating schedule: first listening symbol
}

func (s sfAgentState) code() int {
	fields := []int{s.c1, s.c0, s.opinion, s.sub, s.ones, s.all, s.first}
	code := 0
	for i, f := range fields {
		if f < 0 || f > 15 {
			panic(fmt.Sprintf("sf chain state field %d = %d outside [0, 16)", i, f))
		}
		code |= f << (4 * i)
	}
	return code
}

func sfAgentStateOf(code int) sfAgentState {
	f := func(i int) int { return code >> (4 * i) & 15 }
	return sfAgentState{f(0), f(1), f(2), f(3), f(4), f(5), f(6)}
}

// sfChain is Algorithm 1 on the complete graph: for T rounds sources show
// their preference and non-sources 0 while every agent counts 1s, for T
// more non-sources show 1 while every agent counts 0s, and the weak opinion
// is the majority of the two counters. The alternating schedule instead has
// each non-source show a fair coin, then alternate, while every agent
// counts both symbols over the 2T rounds. Boosting shows the opinion and
// replaces it by the majority of each sub-phase's messages: w of them in
// the first L sub-phases, m after.
func sfChain(cfg sim.Config, alt, exact bool) *syncChain {
	env := cfg.Env()
	m, t, w, l, err := cfg.Protocol.(*protocol.SF).Params(env)
	if err != nil {
		panic(err)
	}
	h, sources := cfg.H, cfg.Sources1+cfg.Sources0
	c := &syncChain{
		n: cfg.N, eff: matrixRows(cfg.Noise), correct: cfg.CorrectOpinion(),
		sample: completeSample(cfg.N, exact),
		sorted: sources,
		display: func(i, code, round int) int {
			s, rd := sfAgentStateOf(code), round-1
			switch {
			case rd >= 2*t:
				return s.opinion
			case i < cfg.Sources1:
				return 1
			case i < sources:
				return 0
			case alt:
				return (s.first + rd) % 2
			case rd < t:
				return 0
			}
			return 1
		},
		step: func(_, code, round int, q []float64) []outcome {
			rd := round - 1
			var law []outcome
			for k1 := 0; k1 <= h; k1++ {
				pk := stats.BinomPMF(h, q[1], k1)
				if pk == 0 {
					continue
				}
				s := sfAgentStateOf(code)
				var tally []int // the (ones, zeros) an opinion update votes on
				switch {
				case rd < 2*t && alt:
					s.c1 += k1
					s.c0 += h - k1
				case rd < t:
					s.c1 += k1
				case rd < 2*t:
					s.c0 += h - k1
				default:
					s.ones += k1
					s.all += h
					quota := w
					if s.sub >= l {
						quota = m
					}
					if s.all >= quota {
						tally = []int{s.ones, s.all - s.ones}
						s.ones, s.all = 0, 0
						s.sub++
					}
				}
				if rd == 2*t-1 {
					tally = []int{s.c1, s.c0}
					s.c1, s.c0, s.first = 0, 0, 0
				}
				if tally == nil {
					law = addOutcome(law, s.code(), pk)
					continue
				}
				for _, v := range vote(tally[0], tally[1]) {
					s.opinion = v.state
					law = addOutcome(law, s.code(), pk*v.p)
				}
			}
			return law
		},
		opinion: func(code int) int { return sfAgentStateOf(code).opinion },
	}
	for i := 0; i < cfg.N; i++ {
		switch {
		case i < cfg.Sources1:
			c.init = append(c.init, deterministic(sfAgentState{opinion: 1}.code()))
		case i < sources:
			c.init = append(c.init, deterministic(sfAgentState{}.code()))
		case alt:
			c.init = append(c.init, []outcome{{sfAgentState{}.code(), 0.5}, {sfAgentState{first: 1}.code(), 0.5}})
		default:
			c.init = append(c.init, deterministic(sfAgentState{}.code()))
		}
	}
	return c
}

// ssfAgentState is one agent's Algorithm 2 state: the memory multiset as
// per-symbol counts (symbol = 2·source bit + value bit), the weak opinion
// and the opinion.
type ssfAgentState struct {
	mem           [4]int
	weak, opinion int
}

func (s ssfAgentState) code() int {
	code := s.weak<<16 | s.opinion<<17
	for j, c := range s.mem {
		if c < 0 || c > 15 {
			panic(fmt.Sprintf("ssf chain memory count %d outside [0, 16)", c))
		}
		code |= c << (4 * j)
	}
	return code
}

func ssfAgentStateOf(code int) ssfAgentState {
	var s ssfAgentState
	for j := range s.mem {
		s.mem[j] = code >> (4 * j) & 15
	}
	s.weak, s.opinion = code>>16&1, code>>17&1
	return s
}

// forEachCount calls fn with every vector of d non-negative counts summing
// to h, and its multinomial probability under q.
func forEachCount(h int, q []float64, fn func(counts []int, p float64)) {
	counts := make([]int, len(q))
	var walk func(j, left int)
	walk = func(j, left int) {
		if j == len(q)-1 {
			counts[j] = left
			p, drawn := 1.0, 0
			for s, c := range counts {
				for k := 1; k <= c; k++ {
					drawn++
					p *= q[s] * float64(drawn) / float64(k)
				}
			}
			if p > 0 {
				fn(counts, p)
			}
			return
		}
		for c := 0; c <= left; c++ {
			counts[j] = c
			walk(j+1, left-c)
		}
	}
	walk(0, h)
}

// ssfChain is Algorithm 2 on the complete graph: sources show (1,
// preference), non-sources (0, weak opinion). Every agent adds its
// observations to its memory; when the memory holds m messages the weak
// opinion becomes the majority value among source-tagged messages, the
// opinion the majority value among all of them, and the memory empties.
func ssfChain(cfg sim.Config, exact bool) *syncChain {
	m, err := cfg.Protocol.(*protocol.SSF).UpdateQuota(cfg.Env())
	if err != nil {
		panic(err)
	}
	sources := cfg.Sources1 + cfg.Sources0
	c := &syncChain{
		n: cfg.N, eff: matrixRows(cfg.Noise), correct: cfg.CorrectOpinion(),
		sample: completeSample(cfg.N, exact),
		sorted: sources,
		display: func(i, code, _ int) int {
			switch {
			case i < cfg.Sources1:
				return 3
			case i < sources:
				return 2
			}
			return ssfAgentStateOf(code).weak
		},
		step: func(_, code, _ int, q []float64) []outcome {
			var law []outcome
			forEachCount(cfg.H, q, func(obs []int, p float64) {
				s := ssfAgentStateOf(code)
				total := 0
				for j, o := range obs {
					s.mem[j] += o
					total += s.mem[j]
				}
				if total < m {
					law = addOutcome(law, s.code(), p)
					return
				}
				for _, wk := range vote(s.mem[3], s.mem[2]) {
					for _, op := range vote(s.mem[1]+s.mem[3], s.mem[0]+s.mem[2]) {
						next := ssfAgentState{weak: wk.state, opinion: op.state}
						law = addOutcome(law, next.code(), p*wk.p*op.p)
					}
				}
			})
			return law
		},
		opinion: func(code int) int { return ssfAgentStateOf(code).opinion },
	}
	for i := 0; i < cfg.N; i++ {
		pref := 0
		if i < cfg.Sources1 {
			pref = 1
		}
		c.init = append(c.init, deterministic(ssfAgentState{weak: pref, opinion: pref}.code()))
	}
	return c
}

// graphChain is the voter (adopt one uniformly chosen observation) or
// h-majority (coin on ties) on cfg.Topology, tracked as the vector of
// opinions. Sources hold their preference; majority non-sources start
// from their id parity, voter non-sources from 0. With exact false every
// agent also samples itself: the negative control.
func graphChain(cfg sim.Config, majority, exact bool) *syncChain {
	h, sources := cfg.H, cfg.Sources1+cfg.Sources0
	c := &syncChain{
		n: cfg.N, eff: matrixRows(cfg.Noise), correct: cfg.CorrectOpinion(),
		sorted:  cfg.N,
		display: func(_, op, _ int) int { return op },
		step: func(i, op, _ int, q []float64) []outcome {
			switch {
			case i < sources:
				return deterministic(op)
			case !majority:
				return []outcome{{0, q[0]}, {1, q[1]}}
			}
			var law []outcome
			for k1 := 0; k1 <= h; k1++ {
				pk := stats.BinomPMF(h, q[1], k1)
				for _, v := range vote(k1, h-k1) {
					law = addOutcome(law, v.state, pk*v.p)
				}
			}
			return law
		},
		opinion: func(op int) int { return op },
	}
	for i := 0; i < cfg.N; i++ {
		set := neighbourSet(cfg.Topology, i)
		if !exact {
			set = append(set, i)
		}
		c.sample = append(c.sample, set)
		switch {
		case i < cfg.Sources1:
			c.init = append(c.init, deterministic(1))
		case i < sources || !majority:
			c.init = append(c.init, deterministic(0))
		default:
			c.init = append(c.init, deterministic(i%2))
		}
	}
	return c
}

type syncCase struct {
	name   string
	cfg    sim.Config
	rounds int
	// chain builds the exact chain, or with exact false the negative
	// control's, which the same histograms must fail.
	chain func(cfg sim.Config, exact bool) *syncChain
	// counts adds the counts backend to the kernel.
	counts bool
}

func syncCases(t *testing.T) []syncCase {
	t.Helper()
	complete := func(p sim.Protocol, h int, delta float64) sim.Config {
		return sim.Config{
			N: 4, H: h, Sources1: 1,
			Noise:    uniformNoise(t, p.Alphabet(), delta),
			Protocol: p,
		}
	}
	corrupted := complete(protocol.MajorityRule{}, 3, 0.2)
	corrupted.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 2, Fraction: 0.5, Corruption: faults.CorruptRandom},
	}}
	randomStart := complete(protocol.TrustBit{}, 2, 0.15)
	randomStart.Corruption = sim.CorruptRandom
	// Majority's fresh non-sources start from id parity, so round-0
	// corruption hits two classes.
	majorityRandom := complete(protocol.MajorityRule{}, 3, 0.2)
	majorityRandom.Corruption = sim.CorruptRandom
	sf := func(opts ...protocol.SFOption) sim.Config {
		opts = append(opts, protocol.WithSFSampleBudget(4), protocol.WithSFBoostWindow(0.3), protocol.WithSFBoostSubPhases(0.5))
		return complete(protocol.NewSF(opts...), 2, 0.1)
	}
	ring, err := graph.Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	onRing := func(p sim.Protocol) sim.Config {
		return sim.Config{
			N: 6, H: 3, Sources1: 1,
			Noise:    uniformNoise(t, 2, 0.2),
			Protocol: p,
			Topology: ring,
		}
	}
	return []syncCase{
		{"voter", complete(protocol.Voter{}, 3, 0.2), 3, classChain, true},
		{"majority", complete(protocol.MajorityRule{}, 3, 0.2), 3, classChain, true},
		{"trustbit", complete(protocol.TrustBit{}, 2, 0.15), 3, classChain, true},
		{"majority corrupt fault", corrupted, 3, classChain, true},
		{"trustbit random start", randomStart, 3, classChain, true},
		{"majority random start", majorityRandom, 3, classChain, true},
		{"sf", sf(), 7, func(cfg sim.Config, exact bool) *syncChain { return sfChain(cfg, false, exact) }, false},
		{"sf alternating", sf(protocol.WithSFAlternating()), 7, func(cfg sim.Config, exact bool) *syncChain { return sfChain(cfg, true, exact) }, false},
		{"ssf", complete(protocol.NewSSF(protocol.WithSSFUpdateQuota(2)), 1, 0.1), 4, ssfChain, false},
		{"ring voter", onRing(protocol.Voter{}), 3, func(cfg sim.Config, exact bool) *syncChain { return graphChain(cfg, false, exact) }, false},
		{"ring majority", onRing(protocol.MajorityRule{}), 3, func(cfg sim.Config, exact bool) *syncChain { return graphChain(cfg, true, exact) }, false},
	}
}

// restoredFinalCorrect is finalCorrect with every seed also run restored:
// cfg checkpoints at round ⌊rounds/2⌋, and a second runner, rewound to the
// same seed, restores those bytes and runs to the end. The restored result
// must equal the uninterrupted one. It returns both histograms.
func restoredFinalCorrect(t *testing.T, cfg sim.Config, rounds int) (hist, restored []int) {
	t.Helper()
	cfg.MaxRounds, cfg.StabilityWindow = rounds, rounds
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	resumed, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	mid := rounds / 2
	var snap []byte
	r.SetCheckpoint(mid, func(round int, data []byte) {
		if round == mid {
			snap = data
		}
	})
	hist, restored = make([]int, cfg.N+1), make([]int, cfg.N+1)
	for s := uint64(1); s <= chainTrials; s++ {
		r.Reset(s)
		snap = nil
		want, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want.Rounds != rounds || snap == nil {
			t.Fatalf("seed %d: ran %d rounds (want %d), checkpoint at round %d taken: %v", s, want.Rounds, rounds, mid, snap != nil)
		}
		resumed.Reset(s)
		if err := resumed.Restore(snap); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: restored at round %d, the run ended %+v, uninterrupted %+v", s, mid, got, want)
		}
		hist[want.FinalCorrect]++
		restored[got.FinalCorrect]++
	}
	return hist, restored
}

// TestSyncChainOracle chi-squares the synchronous engine's FinalCorrect
// law against the exact chain for each protocol's kernel and, for
// countable protocols, for the counts backend. Each population also runs
// restored from a mid-run checkpoint, seed by seed equal to its
// uninterrupted run. The histograms must reject the negative control's law
// with a statistic of at least twice its critical value.
func TestSyncChainOracle(t *testing.T) {
	for _, tc := range syncCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			law := tc.chain(tc.cfg, true).law(tc.rounds)
			wrong := tc.chain(tc.cfg, false).law(tc.rounds)
			check := func(pop string, hist []int) {
				stat, crit := chainChiSquare(hist, law)
				if stat > crit {
					t.Errorf("%s: chi-square %.1f exceeds critical value %.1f (alpha %g): histogram %v, exact law %v", pop, stat, crit, chainAlpha, hist, law)
				}
				wstat, wcrit := chainChiSquare(hist, wrong)
				if wstat < 2*wcrit {
					t.Errorf("%s: negative control rejected too weakly: chi-square %.1f < twice its critical value %.1f", pop, wstat, wcrit)
				}
				t.Logf("%s: chi-square %.1f (negative control %.1f), critical value %.1f", pop, stat, wstat, crit)
			}
			pops := []string{"kernel"}
			if tc.counts {
				pops = append(pops, "counts")
			}
			for _, pop := range pops {
				cfg := tc.cfg
				if pop == "counts" {
					cfg.Backend = sim.BackendCounts
				}
				hist, restored := restoredFinalCorrect(t, cfg, tc.rounds)
				check(pop, hist)
				check(pop+" restored", restored)
			}
		})
	}
}
