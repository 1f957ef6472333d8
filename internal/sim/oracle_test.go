// Exact one-round observation-law oracle.
//
// In a noisy PULL(h) round an agent's h observations are i.i.d.: each is the
// display of an agent drawn uniformly with replacement from its sampling set
// (every agent, itself included, on the complete graph; its neighbours on a
// graph), pushed through the effective channel (N, or N·P when the
// Theorem 8 artificial matrix P is set). An agent's count vector is
// therefore exactly Multinomial(h, q). The tests below derive q from that
// definition alone, run one round per seed, and chi-square one agent's
// count-vector histogram against the exact pmf. They hold every sampler the
// engine uses to the model rather than to another implementation.
package sim_test

import (
	"fmt"
	"math"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

const (
	oracleTrials      = 4000
	oracleAlpha       = 1e-4
	asyncOracleRounds = 3
)

// oracleProto pins each agent's display by id; its kernel records the counts
// each agent observes. Corruption moves an agent to the next symbol, so an
// agent corrupted while crashed shows a live display that differs from the
// one it froze with.
func oracleProto(alphabet int, display func(id int) int) *sim.Probe {
	return &sim.Probe{Symbols: alphabet, Display: display, Shift: true}
}

// lastSeen returns the counts agent observed last, or nil if it observed
// nothing.
func lastSeen(k *sim.ProbePop, agent int) []int {
	if seen := k.Seen[agent]; len(seen) > 0 {
		return seen[len(seen)-1]
	}
	return nil
}

// oracleHistogram runs one round per seed on a single reused runner and
// histograms the count vector agent observed.
func oracleHistogram(t *testing.T, cfg sim.Config, agent int) map[string]int {
	t.Helper()
	cfg.MaxRounds = 1
	cfg.Workers = 1
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hist := make(map[string]int)
	for s := 1; s <= oracleTrials; s++ {
		r.Reset(uint64(s))
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		last := lastSeen(sim.ProbeOf(r), agent)
		if last == nil {
			t.Fatalf("seed %d: agent %d observed nothing", s, agent)
		}
		hist[fmt.Sprint(last)]++
	}
	return hist
}

// asyncOracleHistogram is oracleHistogram under the asynchronous scheduler:
// each seed runs asyncOracleRounds parallel rounds, and the agent's last
// observation is histogrammed. Displays are pinned, so every activation
// draws from the same law; seeds in which the agent never activated are
// skipped.
func asyncOracleHistogram(t *testing.T, cfg sim.Config, agent int) map[string]int {
	t.Helper()
	cfg.MaxRounds = asyncOracleRounds
	r, err := sim.NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := make(map[string]int)
	for s := 1; s <= oracleTrials; s++ {
		r.Reset(uint64(s))
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if last := lastSeen(sim.ProbeOf(sim.AsyncEngine(r)), agent); last != nil {
			hist[fmt.Sprint(last)]++
		}
	}
	return hist
}

// compositions lists every count vector of length d summing to h, in
// lexicographic order.
func compositions(h, d int) [][]int {
	if d == 1 {
		return [][]int{{h}}
	}
	var out [][]int
	for k := 0; k <= h; k++ {
		for _, rest := range compositions(h-k, d-1) {
			out = append(out, append([]int{k}, rest...))
		}
	}
	return out
}

// multinomialPMF is P(counts) under Multinomial(Σ counts, q).
func multinomialPMF(counts []int, q []float64) float64 {
	h := 0
	logp := 0.0
	for j, k := range counts {
		h += k
		lg, _ := math.Lgamma(float64(k + 1))
		logp -= lg
		if k > 0 {
			if q[j] == 0 {
				return 0
			}
			logp += float64(k) * math.Log(q[j])
		}
	}
	lg, _ := math.Lgamma(float64(h + 1))
	return math.Exp(logp + lg)
}

// lawChiSquare compares a histogram of count vectors with the exact
// Multinomial(h, q) pmf, returning the statistic and its critical value at
// oracleAlpha.
func lawChiSquare(hist map[string]int, h int, q []float64) (stat, crit float64) {
	total := 0
	for _, c := range hist {
		total += c
	}
	comps := compositions(h, len(q))
	observed := make([]int, len(comps))
	expected := make([]float64, len(comps))
	for i, c := range comps {
		observed[i] = hist[fmt.Sprint(c)]
		expected[i] = float64(total) * multinomialPMF(c, q)
	}
	stat, df := stats.ChiSquare(observed, expected, 5)
	return stat, stats.ChiSquareCritical(df, oracleAlpha)
}

// observationLaw is the per-observation law of an agent that samples
// uniformly from set and reads each sampled display through the rows of eff.
func observationLaw(eff [][]float64, displays, set []int) []float64 {
	q := make([]float64, len(eff))
	for _, v := range set {
		for j, p := range eff[displays[v]] {
			q[j] += p / float64(len(set))
		}
	}
	return q
}

func matrixRows(m *noise.Matrix) [][]float64 {
	rows := make([][]float64, m.Alphabet())
	for i := range rows {
		rows[i] = append([]float64(nil), m.Row(i)...)
	}
	return rows
}

// matMul multiplies two square row-major matrices.
func matMul(a, b [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = make([]float64, len(b[0]))
		for k := range b {
			for j := range b[k] {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func neighbourSet(g *graph.Graph, i int) []int {
	var out []int
	for _, v := range g.Neighbors(i) {
		out = append(out, int(v))
	}
	return out
}

// displaysOf evaluates a display pattern over n agents.
func displaysOf(n int, display func(id int) int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = display(i)
	}
	return out
}

type oracleCase struct {
	name  string
	cfg   sim.Config
	agent int       // the agent whose count vector is histogrammed
	q     []float64 // exact per-observation law of that agent
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	binDisplay := func(id int) int { // agent 7 shows 1 together with agent 2
		if id == 2 || id == 7 {
			return 1
		}
		return 0
	}
	karyDisplay := func(id int) int { return [...]int{0, 1, 2, 3, 3, 3, 1, 3}[id%8] }
	binary := uniformNoise(t, 2, 0.1)
	kary := uniformNoise(t, 4, 0.05)
	base := func(n, h int, m *noise.Matrix, display func(int) int) sim.Config {
		return sim.Config{
			N: n, H: h, Sources1: 2, Sources0: 1,
			Noise:    m,
			Protocol: oracleProto(m.Alphabet(), display),
			Seed:     1,
		}
	}
	var cases []oracleCase

	// Complete graph, binary: one shared Binomial(h, q₁) per round.
	c := base(8, 12, binary, binDisplay)
	cases = append(cases, oracleCase{"complete binary", c, 7,
		observationLaw(matrixRows(binary), displaysOf(8, binDisplay), upTo(8))})

	// Complete graph, k = 4: h = 4 has a 35-outcome support (joint alias
	// table); h = 30 has 5,456 outcomes, over the joint-table cap, so the
	// round sampler uses conditional binomials.
	for _, h := range []int{4, 30} {
		c := base(8, h, kary, karyDisplay)
		cases = append(cases, oracleCase{fmt.Sprintf("complete k4 h%d", h), c, 5,
			observationLaw(matrixRows(kary), displaysOf(8, karyDisplay), upTo(8))})
	}

	// Ring: an agent samples its 4 neighbours, never itself. Agent 4's
	// neighbours 2, 3, 5 and 6 show 1, 1, 1 and 0.
	ring, err := graph.Ring(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	ringBin := func(id int) int {
		if id == 2 || id == 3 || id == 5 || id == 9 {
			return 1
		}
		return 0
	}
	c = base(12, 10, binary, ringBin)
	c.Topology = ring
	cases = append(cases, oracleCase{"ring binary", c, 4,
		observationLaw(matrixRows(binary), displaysOf(12, ringBin), neighbourSet(ring, 4))})
	c = base(12, 6, kary, karyDisplay)
	c.Topology = ring
	cases = append(cases, oracleCase{"ring k4", c, 6,
		observationLaw(matrixRows(kary), displaysOf(12, karyDisplay), neighbourSet(ring, 6))})

	// A non-uniform N, from which the engine derives the Theorem 8
	// artificial matrix P: every observation goes through N and then P, so
	// the channel is N·P, which equals the f(δ)-uniform T(δ′). The twins
	// check both laws, on the binary and on the k-ary sampler.
	asym, err := noise.FromRows([][]float64{{0.9, 0.1}, {0.25, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	asym4, err := noise.FromRows([][]float64{
		{0.85, 0.05, 0.04, 0.06},
		{0.02, 0.90, 0.05, 0.03},
		{0.06, 0.01, 0.88, 0.05},
		{0.03, 0.04, 0.02, 0.91},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		suffix   string
		nm       *noise.Matrix
		h, agent int
		display  func(int) int
	}{{"", asym, 12, 7, binDisplay}, {" k4", asym4, 4, 5, karyDisplay}} {
		red, err := noise.Reduce(tc.nm)
		if err != nil {
			t.Fatal(err)
		}
		d := tc.nm.Alphabet()
		target, err := noise.Uniform(d, noise.F(tc.nm.UpperDelta(), d))
		if err != nil {
			t.Fatal(err)
		}
		c = base(8, tc.h, tc.nm, tc.display)
		cases = append(cases,
			oracleCase{"theorem 8 N·P" + tc.suffix, c, tc.agent,
				observationLaw(matMul(matrixRows(tc.nm), matrixRows(red.P)), displaysOf(8, tc.display), upTo(8))},
			oracleCase{"theorem 8 T(δ′)" + tc.suffix, c, tc.agent,
				observationLaw(matrixRows(target), displaysOf(8, tc.display), upTo(8))})
	}

	// Crash-frozen agents corrupted after freezing: every agent crashes with
	// the display it shows, every agent is then corrupted (its live display
	// moves on), and every non-source is churned back in as a fresh, active
	// agent. The 10 sources stay crashed, so the round's law must read their
	// frozen displays, not their corrupted live ones.
	crashDisplay := func(id int) int {
		if id < 10 {
			return 1
		}
		return id % 2
	}
	c = base(40, 8, binary, crashDisplay)
	c.Sources1, c.Sources0 = 10, 0
	c.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 1, Fraction: 1, Duration: 3},
		{Kind: faults.KindCorrupt, Round: 1, Fraction: 1, Corruption: faults.CorruptRandom},
		{Kind: faults.KindChurn, Round: 1, Fraction: 1},
	}}
	cases = append(cases, oracleCase{"crash frozen then corrupted", c, 20,
		observationLaw(matrixRows(binary), displaysOf(40, crashDisplay), upTo(40))})
	return cases
}

// TestOracleObservationLaw chi-squares one round of each sampler path
// against the exact observation law, and the same agent's activations under
// the asynchronous scheduler, which rejects fault schedules.
func TestOracleObservationLaw(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			check := func(engine string, hist map[string]int) {
				stat, crit := lawChiSquare(hist, tc.cfg.H, tc.q)
				if stat > crit {
					t.Errorf("%s: chi-square %.1f exceeds critical value %.1f (alpha %g) against the exact law q = %v", engine, stat, crit, oracleAlpha, tc.q)
				}
			}
			check("sync", oracleHistogram(t, tc.cfg, tc.agent))
			if tc.cfg.Faults == nil {
				check("async", asyncOracleHistogram(t, tc.cfg, tc.agent))
			}
		})
	}
}

// TestOracleRejectsWrongLaw is the oracle's negative control: the law of an
// agent that never samples itself must be rejected, so the positive cases
// cannot pass merely for lack of power.
func TestOracleRejectsWrongLaw(t *testing.T) {
	tc := oracleCases(t)[0]
	others := upTo(tc.cfg.N)
	others = append(others[:tc.agent], others[tc.agent+1:]...)
	display := tc.cfg.Protocol.(*sim.Probe).Display
	q := observationLaw(matrixRows(tc.cfg.Noise), displaysOf(tc.cfg.N, display), others)
	stat, crit := lawChiSquare(oracleHistogram(t, tc.cfg, tc.agent), tc.cfg.H, q)
	if stat <= crit {
		t.Fatalf("law without self-sampling accepted: chi-square %.1f <= critical value %.1f", stat, crit)
	}
	t.Logf("law without self-sampling: chi-square %.1f against critical value %.1f", stat, crit)
}
