// Exact Markov-chain oracle for the asynchronous scheduler.
//
// Under AsyncRunner one activation picks an agent uniformly at random, draws
// its h observations from the current displays of its sampling set (the
// whole population, itself included, on the complete graph; its neighbours
// on a graph) through the effective channel, and updates that agent alone.
// At tiny n the population is then a finite Markov chain: over class-count
// vectors for a countable protocol on the complete graph, and over opinion
// vectors for the voter on a ring. The tests below evolve the exact
// distribution through n activations per parallel round and chi-square the
// engine's FinalCorrect histogram against it. The kernels and the adapter
// never read TransitionRow, so agreement is independent evidence.
package sim_test

import (
	"testing"

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
	cp.InitialCounts(env, sim.CountsInit{
		Sources1: cfg.Sources1, Sources0: cfg.Sources0, WrongOpinion: 1 - correct,
	}, init[:k])
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

// asyncFinalCorrect runs chainTrials seeds of cfg for exactly the given
// rounds (MaxRounds = StabilityWindow, so the run cannot stop early) on one
// Reset async runner and histograms Result.FinalCorrect.
func asyncFinalCorrect(t *testing.T, cfg sim.Config, rounds int) []int {
	t.Helper()
	cfg.MaxRounds, cfg.StabilityWindow = rounds, rounds
	r, err := sim.NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int, cfg.N+1)
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
// FinalCorrect law against the exact chain for each protocol's own
// population and for its plain Agents behind the adapter, and requires the
// negative-control law to be rejected by the same histogram.
func TestAsyncChainOracle(t *testing.T) {
	for _, tc := range chainCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			law := tc.law(tc.cfg, tc.rounds, true)
			wrong := tc.law(tc.cfg, tc.rounds, false)
			for _, pop := range []string{"kernel", "adapter"} {
				cfg := tc.cfg
				if pop == "adapter" {
					cfg.Protocol = agentsOnly(cfg.Protocol)
				}
				hist := asyncFinalCorrect(t, cfg, tc.rounds)
				stat, crit := chainChiSquare(hist, law)
				if stat > crit {
					t.Errorf("%s: chi-square %.1f exceeds critical value %.1f (alpha %g): histogram %v, exact law %v", pop, stat, crit, chainAlpha, hist, law)
				}
				wstat, wcrit := chainChiSquare(hist, wrong)
				if wstat <= wcrit {
					t.Errorf("%s: negative-control law accepted: chi-square %.1f <= critical value %.1f", pop, wstat, wcrit)
				}
				t.Logf("%s: chi-square %.1f (negative control %.1f), critical value %.1f", pop, stat, wstat, crit)
			}
		})
	}
}
