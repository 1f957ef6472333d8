package protocol

import (
	"math"
	"testing"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// countableEnv builds the Env for the countable tests.
func countableEnv(n, h, alphabet, s1, s0 int) sim.Env {
	bias := s1 - s0
	if bias < 0 {
		bias = -bias
	}
	return sim.Env{N: n, H: h, Alphabet: alphabet, Delta: 0.1, Sources: s1 + s0, Bias: bias}
}

// classify maps agent i of a kernel population to its countable class
// index (a source's opinion is its preference).
func classify(t *testing.T, pop sim.VecPopulation, i int) int {
	t.Helper()
	switch p := pop.(type) {
	case *voterPop:
		return binClass(p.opinionPop, i)
	case *majorityPop:
		return binClass(p.opinionPop, i)
	case *trustBitPop:
		switch {
		case i < p.spec.Sources1+p.spec.Sources0:
			return tbSrc0 + int(p.opinion[i])
		case p.informed[i] == 1:
			return tbInf0 + int(p.opinion[i])
		default:
			return tbUn0 + int(p.opinion[i])
		}
	}
	t.Fatalf("unexpected population %T", pop)
	return -1
}

// binClass is the class of agent i of a voter or majority population.
func binClass(p opinionPop, i int) int {
	if i < p.spec.Sources1+p.spec.Sources0 {
		return binSrc0 + int(p.opinion[i])
	}
	return binNon0 + int(p.opinion[i])
}

// TestInitialCountsMatchAgents checks that InitialCounts, followed by
// CorruptRow on every agent as the counts backend applies round-0
// corruption, reproduces the exact class histogram of the kernel's round-0
// population for the deterministic corruption modes (none and
// wrong-consensus, whose rows are one-hot), for both source layouts.
func TestInitialCountsMatchAgents(t *testing.T) {
	protos := []struct {
		name string
		p    sim.CountableProtocol
	}{
		{"voter", Voter{}}, {"majority", MajorityRule{}}, {"trustbit", TrustBit{}},
	}
	modes := []sim.CorruptionMode{sim.CorruptNone, sim.CorruptWrongConsensus}
	layouts := []struct{ s1, s0 int }{{3, 0}, {5, 2}, {2, 5}}
	const n = 101
	for _, pr := range protos {
		for _, mode := range modes {
			for _, lay := range layouts {
				env := countableEnv(n, 4, pr.p.Alphabet(), lay.s1, lay.s0)
				correct := 0
				if lay.s1 > lay.s0 {
					correct = 1
				}
				wrong := 1 - correct

				want := make([]int, pr.p.NumStates(env))
				pop := pr.p.NewVecPopulation(sim.VecSpec{Env: env, N: n, Sources1: lay.s1, Sources0: lay.s0, Correct: correct})
				pop.InitRange(0, n, mode, rng.New(7))
				for id := 0; id < n; id++ {
					want[classify(t, pop, id)]++
				}

				fresh := make([]int, pr.p.NumStates(env))
				pr.p.InitialCounts(env, lay.s1, lay.s0, fresh)
				got := make([]int, len(fresh))
				row := make([]float64, len(fresh))
				for s, c := range fresh {
					pr.p.CorruptRow(env, s, mode, wrong, row)
					for to, p := range row {
						switch p {
						case 0:
						case 1:
							got[to] += c
						default:
							t.Fatalf("%s mode=%v: class %d corrupt row %v is not one-hot", pr.name, mode, s, row)
						}
					}
				}

				for s := range want {
					if got[s] != want[s] {
						t.Errorf("%s mode=%v s1=%d s0=%d: class %d counts %d, agents give %d",
							pr.name, mode, lay.s1, lay.s0, s, got[s], want[s])
					}
				}
			}
		}
	}
}

// TestTransitionRowsAreStochastic sweeps observation distributions and
// checks every class's transition row is a probability vector.
func TestTransitionRowsAreStochastic(t *testing.T) {
	obsGrids := map[int][][]float64{
		2: {{1, 0}, {0, 1}, {0.5, 0.5}, {0.9, 0.1}, {0.123, 0.877}},
		4: {{1, 0, 0, 0}, {0, 0, 0, 1}, {0.25, 0.25, 0.25, 0.25}, {0.7, 0.1, 0.15, 0.05}, {0.5, 0.5, 0, 0}},
	}
	for _, pr := range []struct {
		name string
		p    sim.CountableProtocol
	}{{"voter", Voter{}}, {"majority", MajorityRule{}}, {"trustbit", TrustBit{}}} {
		for _, h := range []int{1, 2, 3, 5, 8, 33} {
			env := countableEnv(1000, h, pr.p.Alphabet(), 3, 0)
			k := pr.p.NumStates(env)
			row := make([]float64, k)
			for _, obs := range obsGrids[pr.p.Alphabet()] {
				for s := 0; s < k; s++ {
					pr.p.TransitionRow(env, s, obs, row)
					sum := 0.0
					for _, p := range row {
						if p < 0 || p > 1+1e-12 || math.IsNaN(p) {
							t.Fatalf("%s h=%d class %d obs=%v: bad probability %v in row %v", pr.name, h, s, obs, p, row)
						}
						sum += p
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Fatalf("%s h=%d class %d obs=%v: row sums to %v", pr.name, h, s, obs, sum)
					}
				}
			}
		}
	}
}

// TestTrustBitRowMatchesEnumeration cross-checks the TrustBit transition
// row against exact enumeration of all observation-count outcomes for small
// h, replaying the per-agent Observe logic with tie mass split in half.
func TestTrustBitRowMatchesEnumeration(t *testing.T) {
	p := TrustBit{}
	obs := []float64{0.3, 0.25, 0.25, 0.2}
	for _, h := range []int{1, 2, 3, 4} {
		env := countableEnv(1000, h, 4, 3, 0)
		for state := 0; state < tbStates; state++ {
			want := make([]float64, tbStates)
			// Enumerate observation counts (c0, c1, c2, c3) with sum h.
			for c0 := 0; c0 <= h; c0++ {
				for c1 := 0; c0+c1 <= h; c1++ {
					for c2 := 0; c0+c1+c2 <= h; c2++ {
						c3 := h - c0 - c1 - c2
						prob := multinomialPMF(h, []int{c0, c1, c2, c3}, obs)
						switch {
						case state == tbSrc0 || state == tbSrc1:
							want[state] += prob
						case c2+c3 == 0:
							want[state] += prob
						case c3 > c2:
							want[tbInf1] += prob
						case c2 > c3:
							want[tbInf0] += prob
						default: // tie: fair coin
							want[tbInf1] += prob / 2
							want[tbInf0] += prob / 2
						}
					}
				}
			}
			row := make([]float64, tbStates)
			p.TransitionRow(env, state, obs, row)
			for s := range want {
				if math.Abs(row[s]-want[s]) > 1e-12 {
					t.Errorf("h=%d state=%d: row[%d] = %v, enumeration gives %v", h, state, s, row[s], want[s])
				}
			}
		}
	}
}

// multinomialPMF returns the Multinomial(n, probs) mass at counts.
func multinomialPMF(n int, counts []int, probs []float64) float64 {
	lgN, _ := math.Lgamma(float64(n) + 1)
	logp := lgN
	for i, c := range counts {
		lgC, _ := math.Lgamma(float64(c) + 1)
		logp -= lgC
		if c > 0 {
			logp += float64(c) * math.Log(probs[i])
		}
	}
	return math.Exp(logp)
}
