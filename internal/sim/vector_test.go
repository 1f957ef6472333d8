// Equivalence suite for the per-agent engine path (vector.go). A built-in
// protocol runs there as its struct-of-arrays kernel; any other Agent
// protocol runs as one Agent per index through the adapter population
// (agentpop.go). A kernel consumes randomness differently from its own
// protocol's Agents under the adapter, so the two are NOT bit-identical.
// What this file proves instead:
//
//  1. every run is bit-identical to itself at any Workers / GOMAXPROCS
//     setting (per-chunk streams + commutative integer merges), adapter
//     included;
//  2. each kernel agrees *distributionally* with the same protocol's Agents
//     run through the adapter — same observation law, indistinguishable
//     outcome statistics;
//  3. snapshots resume bit-identically, including under live fault
//     schedules (noise swap/drift, and mid-crash with corruption/churn);
//  4. cross-path restores (kernel, adapter, counts backend) fail loudly
//     instead of silently diverging;
//  5. every built-in protocol runs its own kernel, every other protocol
//     the adapter, and the counts backend neither;
//  6. AsyncRunner activates the same populations: its round-0 state is
//     Runner's, and Reset replays a fresh async runner.
package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// agentsOnly hides p's struct-of-arrays kernel, so the engine runs p's plain
// Agents through the adapter population. It forwards Finite, the one other
// protocol extension the per-agent path reads.
func agentsOnly(p sim.Protocol) sim.Protocol {
	if f, ok := p.(sim.Finite); ok {
		return finiteAgents{plainAgents{p}, f}
	}
	return plainAgents{p}
}

type plainAgents struct{ p sim.Protocol }

func (w plainAgents) Alphabet() int { return w.p.Alphabet() }
func (w plainAgents) NewAgent(id int, role sim.Role, env sim.Env) sim.Agent {
	return w.p.NewAgent(id, role, env)
}

type finiteAgents struct {
	plainAgents
	sim.Finite
}

// structFaults is the structural fault palette: mid-run corruption, a crash
// window spanning the snapshot round of the resume test (12 → 22, over
// round 16), and churn.
var structFaults = &faults.Schedule{Events: []faults.Event{
	{Kind: faults.KindCorrupt, Round: 8, Fraction: 0.2, Corruption: faults.CorruptRandom},
	{Kind: faults.KindCrash, Round: 12, Fraction: 0.3, Duration: 10},
	{Kind: faults.KindChurn, Round: 14, Fraction: 0.15, Corruption: faults.CorruptWrongConsensus},
}}

// churnFaults churns non-sources three times before the round-10
// checkpoint: into fresh agents, into randomly corrupted ones, and into
// wrong-consensus ones.
var churnFaults = &faults.Schedule{Events: []faults.Event{
	{Kind: faults.KindChurn, Round: 4, Fraction: 0.2},
	{Kind: faults.KindChurn, Round: 7, Fraction: 0.15, Corruption: faults.CorruptRandom},
	{Kind: faults.KindChurn, Round: 9, Fraction: 0.1, Corruption: faults.CorruptWrongConsensus},
}}

// vecCase is a per-agent path configuration.
type vecCase struct {
	name string
	cfg  func(t *testing.T, seed uint64) sim.Config
}

func vecCases() []vecCase {
	return []vecCase{
		{
			// n > VecChunkSize so the run spans multiple chunks and worker
			// striding is non-trivial.
			name: "voter aggregate multichunk",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 10000, H: 6, Sources1: 30, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.15),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       40,
					StabilityWindow: 3,
				}
			},
		},
		{
			name: "majority exact",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 25, Sources0: 5,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 4,
					Corruption:      sim.CorruptWrongConsensus,
				}
			},
		},
		{
			name: "sf aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 300, H: 16, Sources1: 2, Sources0: 1,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  protocol.NewSF(),
					Seed:      seed,
					Backend:   sim.BackendAggregate,
					MaxRounds: 5000,
				}
			},
		},
		{
			// Noise swap + drift repoint the observation law mid-run; the
			// schedule must not knock the run off the vec path.
			name: "voter noise faults",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       50,
					StabilityWindow: 3,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindNoiseSwap, Round: 6, Matrix: mustUniform(0.3)},
						{Kind: faults.KindNoiseDrift, Round: 14, Delta: 0.12, DriftRounds: 8},
					}},
				}
			},
		},
		{
			// Graph topology: per-agent neighborhood laws over the CSR
			// adjacency, multi-chunk so the display vector is published by
			// several workers.
			name: "majority regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(10000, 8, 424242)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 10000, H: 6, Sources1: 80, Sources0: 20,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 20,
				}
			},
		},
		{
			// k-ary alphabet on the complete graph: cached multinomial
			// observation batching, multi-chunk.
			name: "ssf k4 aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       200,
					StabilityWindow: 12,
					Corruption:      sim.CorruptRandom,
				}
			},
		},
		{
			// k-ary alphabet on a graph: neighborhood tallies feeding
			// per-agent multinomials.
			name: "trustbit regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(5000, 10, 171717)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 6, Sources1: 100, Sources0: 20,
					Noise:           uniformNoise(t, 4, 0.08),
					Protocol:        protocol.TrustBit{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 25,
				}
			},
		},
		{
			// The structural fault palette on the SoA population.
			name: "voter crash churn corrupt",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.12),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 10,
					Faults:          structFaults,
				}
			},
		},
		{
			// The same run with the voter's plain Agents through the adapter:
			// multi-chunk, so worker striding, the per-chunk observation
			// scratch and the adapter's snapshot payload are all exercised.
			name: "wrapped voter crash churn corrupt",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.12),
					Protocol:        agentsOnly(protocol.Voter{}),
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 10,
					Faults:          structFaults,
				}
			},
		},
		{
			// Churn on each remaining kernel, multi-chunk, run for a fixed
			// 20 rounds (the stability window equals the budget).
			name: "majority churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 6, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
		{
			name: "sf alternating churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 16, Sources1: 60, Sources0: 15,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  protocol.NewSFAlternating(),
					Seed:      seed,
					Backend:   sim.BackendExact,
					MaxRounds: 20,
					Faults:    churnFaults,
				}
			},
		},
		{
			name: "ssf k4 churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
		{
			name: "trustbit ring churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.Ring(5000, 3)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 6, Sources1: 100, Sources0: 20,
					Noise:           uniformNoise(t, 4, 0.08),
					Protocol:        protocol.TrustBit{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
	}
}

// TestVecBitIdenticalAcrossParallelism: the same seed must produce the same
// trajectory — byte-for-byte identical final engine state — at every Workers
// and GOMAXPROCS setting. This is the determinism contract of the per-chunk
// stream scheme: chunk c always draws from DeriveSeed(seed, vecStreamID+c)
// regardless of which worker executes it, and cross-chunk merges are
// commutative integer sums.
func TestVecBitIdenticalAcrossParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			var refRes *sim.Result
			var refSnap []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 8} {
					cfg := tc.cfg(t, 42)
					cfg.Workers = workers
					r, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					snap, err := r.Snapshot()
					r.Close()
					if err != nil {
						t.Fatal(err)
					}
					if refSnap == nil {
						refRes, refSnap = res, snap
						continue
					}
					label := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)
					sameResult(t, refRes, res, label)
					if !bytes.Equal(refSnap, snap) {
						t.Fatalf("%s: final engine state differs from the single-threaded reference", label)
					}
				}
			}
		})
	}
}

// TestVecMatchesScalarDistribution: each built-in kernel and the same
// protocol's scalar Agents run through the adapter implement the same
// stochastic process, so pooled outcome statistics over many independent
// seeds must agree within sampling error. Voter and majority compare the
// mean final-correct count; SF and its alternating variant compare the
// correct-consensus win rate (their dynamics are near-deterministic per
// seed, so wins carry the signal).
func TestVecMatchesScalarDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical A/B needs many trials")
	}
	t.Run("voter mean final correct", func(t *testing.T) {
		const trials = 150
		base := func(seed uint64) sim.Config {
			return sim.Config{
				N: 500, H: 4, Sources1: 6, Sources0: 2,
				Noise:           uniformNoise(t, 2, 0.15),
				Protocol:        protocol.Voter{},
				Seed:            seed,
				Backend:         sim.BackendAggregate,
				MaxRounds:       60,
				StabilityWindow: 4,
				Workers:         1,
			}
		}
		compareFinalCorrect(t, "voter", base, trials)
	})
	t.Run("majority graph mean final correct", func(t *testing.T) {
		const trials = 120
		g, err := graph.RandomRegular(500, 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		base := func(seed uint64) sim.Config {
			return sim.Config{
				N: 500, H: 5, Sources1: 10, Sources0: 2,
				Noise:           uniformNoise(t, 2, 0.1),
				Protocol:        protocol.MajorityRule{},
				Topology:        g,
				Seed:            seed,
				Backend:         sim.BackendExact,
				MaxRounds:       30,
				StabilityWindow: 30,
				Workers:         1,
			}
		}
		compareFinalCorrect(t, "graph majority", base, trials)
	})
	for _, sf := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"sf win rate", protocol.NewSF()},
		{"sf alternating win rate", protocol.NewSFAlternating()},
	} {
		t.Run(sf.name, func(t *testing.T) {
			const trials = 80
			base := func(seed uint64) sim.Config {
				return sim.Config{
					N: 150, H: 16, Sources1: 2, Sources0: 1,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  sf.proto,
					Seed:      seed,
					Backend:   sim.BackendAggregate,
					MaxRounds: 5000,
					Workers:   1,
				}
			}
			wins := func(adapted bool) int {
				won := 0
				for _, fc := range sampleFinalCorrect(t, base, adapted, trials) {
					if 2*fc > 150 {
						won++
					}
				}
				return won
			}
			kernelWins, agentWins := wins(false), wins(true)
			z := twoProportionZ(kernelWins, agentWins, trials)
			if math.Abs(z) > 4.5 {
				t.Fatalf("%s kernel vs adapter win rate diverges: z = %.2f (kernel %d/%d, adapter %d/%d)",
					sf.name, z, kernelWins, trials, agentWins, trials)
			}
		})
	}
}

// compareFinalCorrect Welch-tests the mean final-correct count of a kernel
// against the same protocol's Agents run through the adapter.
func compareFinalCorrect(t *testing.T, label string, base func(seed uint64) sim.Config, trials int) {
	t.Helper()
	kernel := sampleFinalCorrect(t, base, false, trials)
	agents := sampleFinalCorrect(t, base, true, trials)
	if z := welchZ(kernel, agents); math.Abs(z) > 4.5 {
		t.Fatalf("%s kernel vs adapter mean final-correct diverges: z = %.2f (kernel mean %.1f, adapter mean %.1f)",
			label, z, mean(kernel), mean(agents))
	}
}

// TestVecScalarChiSquare: on a k = 4 alphabet each kernel draws one cached
// multinomial per agent and updates flat slices, while the adapter hands
// the same protocol's scalar Agents their counts one by one; both must
// realize the same display law. Each trial records the final per-symbol
// display fractions; each symbol's fractions are compared across the two
// with a Welch z over independent seeds, and the summed z² forms an
// aggregate chi-square-style statistic.
func TestVecScalarChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical A/B needs many trials")
	}
	const trials = 60
	const n = 400
	for _, tc := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"trustbit", protocol.TrustBit{}},
		{"ssf", protocol.NewSSF(protocol.WithSSFUpdateQuota(24))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := func(seed uint64) sim.Config {
				return sim.Config{
					N: n, H: 6, Sources1: 8, Sources0: 2,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        tc.proto,
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       25,
					StabilityWindow: 25,
					Corruption:      sim.CorruptRandom,
					Workers:         1,
				}
			}
			sample := func(adapted bool) [4][]float64 {
				var cols [4][]float64
				for tr := 0; tr < trials; tr++ {
					r := newRunner(t, base(uint64(3000+tr)), adapted)
					if _, err := r.Run(); err != nil {
						t.Fatal(err)
					}
					var cnt [4]int
					for i := 0; i < n; i++ {
						d, _, err := r.AgentState(i)
						if err != nil {
							t.Fatal(err)
						}
						cnt[d]++
					}
					r.Close()
					for j := 0; j < 4; j++ {
						cols[j] = append(cols[j], float64(cnt[j])/float64(n))
					}
				}
				return cols
			}
			kernel, agents := sample(false), sample(true)
			chi2 := 0.0
			for j := 0; j < 4; j++ {
				z := welchZ(kernel[j], agents[j])
				chi2 += z * z
				if math.Abs(z) > 4.5 {
					t.Errorf("symbol %d display fraction diverges: z = %.2f (kernel mean %.3f, adapter mean %.3f)",
						j, z, mean(kernel[j]), mean(agents[j]))
				}
			}
			// Four ~N(0,1) components under the null: 40 sits far beyond any
			// plausible chi-square(4) quantile while staying robust to the
			// mild cross-symbol correlation (fractions sum to 1).
			if chi2 > 40 {
				t.Errorf("aggregate chi-square statistic %.1f over 4 symbols exceeds threshold 40", chi2)
			}
		})
	}
}

// newRunner builds cfg's runner, with the protocol's kernel hidden when
// adapted, and checks that it took the intended population.
func newRunner(t *testing.T, cfg sim.Config, adapted bool) *sim.Runner {
	t.Helper()
	if adapted {
		cfg.Protocol = agentsOnly(cfg.Protocol)
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Agents() != nil; got != adapted {
		t.Fatalf("runner uses the adapter = %v, want %v", got, adapted)
	}
	return r
}

func sampleFinalCorrect(t *testing.T, base func(seed uint64) sim.Config, adapted bool, trials int) []float64 {
	t.Helper()
	out := make([]float64, 0, trials)
	for tr := 0; tr < trials; tr++ {
		r := newRunner(t, base(uint64(5000+tr)), adapted)
		res, err := r.Run()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, float64(res.FinalCorrect))
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func welchZ(a, b []float64) float64 {
	ma, mb := mean(a), mean(b)
	va, vb := 0.0, 0.0
	for _, x := range a {
		va += (x - ma) * (x - ma)
	}
	for _, x := range b {
		vb += (x - mb) * (x - mb)
	}
	va /= float64(len(a) - 1)
	vb /= float64(len(b) - 1)
	se := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if se == 0 {
		if ma == mb {
			return 0
		}
		return math.Inf(1)
	}
	return (ma - mb) / se
}

func twoProportionZ(k1, k2, n int) float64 {
	p1, p2 := float64(k1)/float64(n), float64(k2)/float64(n)
	pool := (float64(k1) + float64(k2)) / float64(2*n)
	se := math.Sqrt(pool * (1 - pool) * 2 / float64(n))
	if se == 0 {
		return 0
	}
	return (p1 - p2) / se
}

// TestVecSnapshotResumeDeterminism: a run interrupted mid-flight — mid-drift
// with a swapped noise matrix, or mid-crash with live fault telemetry — and
// resumed from its snapshot in a fresh runner must finish with the identical
// result and identical final engine state. The chunk stream states and the
// population payload round-trip through the snapPopVec record.
func TestVecSnapshotResumeDeterminism(t *testing.T) {
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t, 77)
			cfg.Workers = 2
			const snapRound = 16
			control, controlFinal := runWithFinalSnap(t, cfg)
			if control.Rounds <= snapRound {
				t.Fatalf("control finished at round %d, before snapshot round %d", control.Rounds, snapRound)
			}

			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var snap []byte
			r.SetOnRound(func(round, correct int) {
				if round == snapRound {
					s, err := r.Snapshot()
					if err != nil {
						t.Errorf("Snapshot at round %d: %v", round, err)
						return
					}
					snap = s
				}
			})
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("snapshot hook never fired")
			}

			r2, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			resumed, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, resumed, "resumed vec result")
			resumedFinal, err := r2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(controlFinal, resumedFinal) {
				t.Fatal("final engine state differs between uninterrupted and resumed vec run")
			}
		})
	}
}

// TestVecCrossPathRestoreRejected: a protocol's kernel and its Agents under
// the adapter draw randomness differently, and the counts backend keeps no
// per-agent state, so restoring a snapshot across any two of them would
// silently change the trajectory. Every direction must fail.
func TestVecCrossPathRestoreRejected(t *testing.T) {
	kernel := vecCases()[0].cfg(t, 5)
	adapter := kernel
	adapter.Protocol = agentsOnly(kernel.Protocol)
	counts := kernel
	counts.Backend = sim.BackendCounts
	cfgs := map[string]sim.Config{"kernel": kernel, "adapter": adapter, "counts": counts}
	snaps := make(map[string][]byte)
	for name, cfg := range cfgs {
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := r.Snapshot()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		snaps[name] = snap
	}
	for from, snap := range snaps {
		for into, cfg := range cfgs {
			if from == into {
				continue
			}
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Restore(snap); err == nil {
				t.Errorf("%s snapshot restored into a %s runner", from, into)
			}
			r.Close()
		}
	}
}

// TestVecEligibility pins which population each configuration gets: every
// built-in protocol runs its own kernel — graph topologies, alphabets > 2,
// and the full fault palette included — every other Agent protocol runs
// through the adapter, and the counts backend has no per-agent population.
// The CI vec-parity step runs this test by name, so a built-in protocol
// silently dropping to the adapter fails the build.
func TestVecEligibility(t *testing.T) {
	base := func() sim.Config {
		return sim.Config{
			N: 200, H: 4, Sources1: 3, Sources0: 1,
			Noise:     uniformNoise(t, 2, 0.1),
			Protocol:  protocol.Voter{},
			Seed:      1,
			MaxRounds: 10,
		}
	}
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	crashChurn := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 3, Fraction: 0.2, Duration: 3},
		{Kind: faults.KindChurn, Round: 5, Fraction: 0.1},
	}}
	const (
		kernel = iota
		adapter
		counts
	)
	cases := []struct {
		name string
		mut  func(c *sim.Config)
		want int
	}{
		{"voter auto(exact h<=8)", func(c *sim.Config) {}, kernel},
		{"voter aggregate", func(c *sim.Config) { c.Backend = sim.BackendAggregate }, kernel},
		{"majority exact", func(c *sim.Config) { c.Protocol = protocol.MajorityRule{} }, kernel},
		{"sf aggregate", func(c *sim.Config) {
			c.Protocol = protocol.NewSF()
			c.Backend = sim.BackendAggregate
			c.H = 16
			c.MaxRounds = 5000
		}, kernel},
		{"noise-only faults", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.1, DriftRounds: 2},
			}}
		}, kernel},
		{"topology", func(c *sim.Config) { c.Topology = ring }, kernel},
		{"corrupt fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCorrupt, Round: 3, Fraction: 0.1, Corruption: faults.CorruptRandom},
			}}
		}, kernel},
		{"crash fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCrash, Round: 3, Fraction: 0.1, Duration: 2},
			}}
		}, kernel},
		{"churn fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindChurn, Round: 3, Fraction: 0.1},
			}}
		}, kernel},
		{"alphabet 4 trustbit", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.H = 40
			c.Backend = sim.BackendAggregate
		}, kernel},
		{"alphabet 4 ssf exact", func(c *sim.Config) {
			c.Protocol = protocol.NewSSF(protocol.WithSSFUpdateQuota(32))
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Backend = sim.BackendExact
			c.MaxRounds = 30
		}, kernel},
		{"alphabet 4 on topology", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Topology = ring
		}, kernel},
		{"crash+churn on graph", func(c *sim.Config) {
			c.Topology = ring
			c.Faults = crashChurn
		}, kernel},
		{"ssf quota beyond kernel counters", func(c *sim.Config) {
			c.Protocol = protocol.NewSSF(protocol.WithSSFUpdateQuota(1 << 31))
			c.Noise = uniformNoise(t, 4, 0.1)
		}, adapter},
		{"wrapped voter", func(c *sim.Config) { c.Protocol = agentsOnly(protocol.Voter{}) }, adapter},
		{"wrapped sf aggregate", func(c *sim.Config) {
			c.Protocol = agentsOnly(protocol.NewSF())
			c.Backend = sim.BackendAggregate
			c.H = 16
			c.MaxRounds = 5000
		}, adapter},
		{"wrapped trustbit on topology", func(c *sim.Config) {
			c.Protocol = agentsOnly(protocol.TrustBit{})
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Topology = ring
		}, adapter},
		{"wrapped majority crash+churn on graph", func(c *sim.Config) {
			c.Protocol = agentsOnly(protocol.MajorityRule{})
			c.Topology = ring
			c.Faults = crashChurn
		}, adapter},
		{"counts backend", func(c *sim.Config) { c.Backend = sim.BackendCounts }, counts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Agents() != nil; got != (tc.want == adapter) {
				t.Fatalf("runner uses the adapter = %v, want %v", got, tc.want == adapter)
			}
			if _, _, err := r.AgentState(0); (err != nil) != (tc.want == counts) {
				t.Fatalf("AgentState error = %v; only the counts backend has no per-agent population", err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVecAgentWeakOpinion: the weak-opinion accessor must work on every
// kernel whose protocol forms one — including the k-ary SSF population and
// graph-topology runs — and report ok = false (not a silent zero with
// ok = true) for protocols without a weak opinion.
func TestVecAgentWeakOpinion(t *testing.T) {
	ring, err := graph.Ring(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     sim.Config
		hasWeak bool
	}{
		{
			name: "ssf k4 complete",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.NewSSF(protocol.WithSSFUpdateQuota(32)),
				Seed:      11,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: true,
		},
		{
			name: "sf ring graph",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 3, Sources0: 1,
				Noise:     uniformNoise(t, 2, 0.15),
				Protocol:  protocol.NewSF(),
				Topology:  ring,
				Seed:      12,
				Backend:   sim.BackendExact,
				MaxRounds: 400,
			},
			hasWeak: true,
		},
		{
			name: "trustbit k4 complete",
			cfg: sim.Config{
				N: 300, H: 6, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.TrustBit{},
				Seed:      13,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := sim.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, tc.cfg.N / 2, tc.cfg.N - 1} {
				weak, ok := r.AgentWeakOpinion(i)
				if ok != tc.hasWeak {
					t.Fatalf("agent %d: AgentWeakOpinion ok = %v, want %v", i, ok, tc.hasWeak)
				}
				if ok && weak != 0 && weak != 1 {
					t.Fatalf("agent %d: weak opinion %d outside {0,1}", i, weak)
				}
			}
		})
	}
}

// asyncSSFConfig is an SSF run on its k = 4 kernel from a random round-0
// corruption.
func asyncSSFConfig(t *testing.T) sim.Config {
	t.Helper()
	return sim.Config{
		N: 150, H: 32, Sources1: 1,
		Noise:        uniformNoise(t, 4, 0.1),
		Protocol:     protocol.NewSSF(),
		Corruption:   sim.CorruptRandom,
		MaxRounds:    40,
		TrackHistory: true,
		Workers:      1,
	}
}

// TestAsyncRoundZeroMatchesSync: NewAsync builds its population through
// the synchronous engine, so before any activation its state, random
// corruption included, is byte-for-byte Runner's under the same seed, on
// the kernel and on the adapter.
func TestAsyncRoundZeroMatchesSync(t *testing.T) {
	for _, wrap := range []func(sim.Protocol) sim.Protocol{
		func(p sim.Protocol) sim.Protocol { return p },
		agentsOnly,
	} {
		cfg := asyncSSFConfig(t)
		cfg.Protocol = wrap(cfg.Protocol)
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sim.NewAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.AsyncEngine(a).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: async round-0 state differs from the synchronous runner's", cfg.Protocol)
		}
	}
}

// TestAsyncResetMatchesFresh: Reset(s) followed by Run replays NewAsync at
// seed s exactly, for SSF on its kernel and for a plain Agent protocol on
// the adapter.
func TestAsyncResetMatchesFresh(t *testing.T) {
	copySource := sim.Config{
		N: 80, H: 8, Sources1: 4, Sources0: 1,
		Noise:           uniformNoise(t, 2, 0.05),
		Protocol:        sim.CopySourceProtocol{},
		StabilityWindow: 3,
		MaxRounds:       200,
		TrackHistory:    true,
	}
	for _, tc := range []struct {
		cfg    sim.Config
		kernel bool
	}{{asyncSSFConfig(t), true}, {copySource, false}} {
		cfg := tc.cfg
		r, err := sim.NewAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Agents is nil exactly when the protocol's own kernel runs.
		if kernel := r.Agents() == nil; kernel != tc.kernel {
			t.Fatalf("%T: kernel = %v, want %v", cfg.Protocol, kernel, tc.kernel)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{5, 9} {
			r.Reset(seed)
			got, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			fresh, err := sim.NewAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T seed %d: Reset run %+v, fresh run %+v", cfg.Protocol, seed, got, want)
			}
		}
	}
}
