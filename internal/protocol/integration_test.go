package protocol_test

import (
	"testing"

	"noisypull/internal/analysis"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

func uniformNoise(t *testing.T, d int, delta float64) *noise.Matrix {
	t.Helper()
	n, err := noise.Uniform(d, delta)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runSF runs SF once and returns the result.
func runSF(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSFConvergesAcrossGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		name         string
		n, h, s1, s0 int
		delta        float64
	}{
		{"single source small h", 400, 16, 1, 0, 0.15},
		{"single source h=n", 400, 400, 1, 0, 0.2},
		{"conflicting sources", 400, 32, 6, 3, 0.2},
		{"zero noise", 300, 16, 1, 0, 0},
		{"high noise", 300, 64, 2, 0, 0.35},
		{"correct opinion is 0", 400, 32, 2, 5, 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				res := runSF(t, sim.Config{
					N: tc.n, H: tc.h, Sources1: tc.s1, Sources0: tc.s0,
					Noise:    uniformNoise(t, 2, tc.delta),
					Protocol: protocol.NewSF(),
					Seed:     seed,
				})
				if !res.Converged {
					t.Fatalf("seed %d: SF did not converge: final %d/%d correct (opinion %d)",
						seed, res.FinalCorrect, tc.n, res.CorrectOpinion)
				}
			}
		})
	}
}

// TestSFWrongPreferenceSourcesFlip verifies Definition 2's requirement that
// minority-preference sources also adopt the correct opinion.
func TestSFWrongPreferenceSourcesFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := sim.Config{
		N: 400, H: 64, Sources1: 8, Sources0: 4,
		Noise:    uniformNoise(t, 2, 0.15),
		Protocol: protocol.NewSF(),
		Seed:     11,
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// Agents [8, 12) are the 0-preference sources; all must now hold 1.
	for i := 8; i < 12; i++ {
		_, got, err := r.AgentState(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("wrong-preference source %d holds %d", i, got)
		}
	}
}

// TestSFWeakOpinionBias is the empirical check of Lemma 28: after the two
// listening phases the weak opinions are correct with probability strictly
// above 1/2. We pool weak opinions across seeds; with ~1600 samples the
// standard error is ~1.25%, and the measured advantage at these parameters
// is several times that.
func TestSFWeakOpinionBias(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 400
	correctWeak, total := 0, 0
	for seed := uint64(0); seed < 4; seed++ {
		cfg := sim.Config{
			N: n, H: 32, Sources1: 1, Sources0: 0,
			Noise:    uniformNoise(t, 2, 0.2),
			Protocol: protocol.NewSF(),
			Seed:     seed,
		}
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			w, ok := r.AgentWeakOpinion(i)
			if !ok {
				t.Fatalf("agent %d: no weak opinion exposed", i)
			}
			if w == 1 { // correct opinion is 1
				correctWeak++
			}
			total++
		}
	}
	frac := float64(correctWeak) / float64(total)
	if frac <= 0.52 {
		t.Fatalf("weak opinions correct at rate %.3f; Lemma 28 predicts > 1/2 with a visible margin", frac)
	}
}

func TestSSFConvergesAndStabilizes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		name         string
		n, h, s1, s0 int
		delta        float64
		corrupt      sim.CorruptionMode
	}{
		{"clean start", 300, 32, 1, 0, 0.1, sim.CorruptNone},
		{"wrong consensus start", 300, 32, 1, 0, 0.1, sim.CorruptWrongConsensus},
		{"random start", 300, 32, 1, 0, 0.1, sim.CorruptRandom},
		{"conflicting sources corrupted", 300, 32, 6, 3, 0.1, sim.CorruptWrongConsensus},
		{"zero noise corrupted", 300, 32, 1, 0, 0, sim.CorruptWrongConsensus},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ssf := protocol.NewSSF()
			for seed := uint64(0); seed < 3; seed++ {
				cfg := sim.Config{
					N: tc.n, H: tc.h, Sources1: tc.s1, Sources0: tc.s0,
					Noise:      uniformNoise(t, 4, tc.delta),
					Protocol:   ssf,
					Seed:       seed,
					Corruption: tc.corrupt,
				}
				// Require stability across two full update cycles.
				var err error
				if cfg.StabilityWindow, cfg.MaxRounds, err = ssf.RunBounds(cfg.Env()); err != nil {
					t.Fatal(err)
				}
				r, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("seed %d: SSF did not stabilize: %d/%d correct after %d rounds",
						seed, res.FinalCorrect, tc.n, res.Rounds)
				}
			}
		})
	}
}

// TestSFUnderNonUniformNoise exercises the full Theorem 8 pipeline: a
// δ-upper-bounded (asymmetric) channel, which the engine reduces to uniform
// noise via the artificial matrix P, with SF parameterized by δ′ = f(δ).
func TestSFUnderNonUniformNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	nm, err := noise.TwoSymbol(0.08, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		res := runSF(t, sim.Config{
			N: 400, H: 32, Sources1: 1, Sources0: 0,
			Noise:    nm,
			Protocol: protocol.NewSF(),
			Seed:     seed,
		})
		if !res.Converged {
			t.Fatalf("seed %d: SF under reduced non-uniform noise did not converge (%d/%d)",
				seed, res.FinalCorrect, 400)
		}
	}
}

// TestMajorityRuleDrownsOutSources demonstrates the failure mode the paper
// describes: plain majority dynamics reaches consensus fast, but on the
// initial majority, not the sources' opinion — so with a balanced start and
// a single source it converges to the correct opinion only ~half the time.
func TestMajorityRuleDrownsOutSources(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	successes := 0
	const trials = 12
	for seed := uint64(0); seed < trials; seed++ {
		cfg := sim.Config{
			N: 400, H: 32, Sources1: 1, Sources0: 0,
			Noise:           uniformNoise(t, 2, 0.2),
			Protocol:        protocol.MajorityRule{},
			Seed:            seed,
			MaxRounds:       2000,
			StabilityWindow: 20,
		}
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			successes++
		}
	}
	if successes == trials {
		t.Fatalf("majority rule succeeded %d/%d — expected the sources to be drowned out in a sizeable fraction of runs", successes, trials)
	}
}

// TestVoterSlowerThanSF contrasts the voter baseline with SF at h = 1 scale:
// within SF's round budget, voter-with-zealots does not stabilize all of a
// moderately sized population on the correct opinion.
func TestVoterDoesNotStabilizeQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := sim.Config{
		N: 400, H: 4, Sources1: 1, Sources0: 0,
		Noise:           uniformNoise(t, 2, 0.2),
		Protocol:        protocol.Voter{},
		Seed:            1,
		MaxRounds:       400, // generous: ~SF's budget at these parameters
		StabilityWindow: 10,
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("voter stabilized in %d rounds under noise; expected failure within budget", res.Rounds)
	}
}

// TestSFAlternatingConverges exercises the Section 2.1 remark variant end
// to end: the coin-and-alternate listening schedule also spreads the
// sources' opinion.
func TestSFAlternatingConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for seed := uint64(0); seed < 3; seed++ {
		res := runSF(t, sim.Config{
			N: 400, H: 64, Sources1: 1, Sources0: 0,
			Noise:    uniformNoise(t, 2, 0.15),
			Protocol: protocol.NewSFAlternating(),
			Seed:     seed,
		})
		if !res.Converged {
			t.Fatalf("seed %d: alternating SF did not converge (%d/%d)", seed, res.FinalCorrect, 400)
		}
	}
}

// TestSSFSurvivesAsynchrony is the strongest form of the no-synchronized-
// wake-up claim: under a fully asynchronous activation schedule (one random
// agent at a time; no common rounds at all), SSF still converges from a
// corrupted start, while SF — whose phases assume a shared clock driven at
// a uniform rate — degrades.
func TestSSFSurvivesAsynchrony(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ssf := protocol.NewSSF()
	for seed := uint64(0); seed < 3; seed++ {
		cfg := sim.Config{
			N: 250, H: 32, Sources1: 1, Sources0: 0,
			Noise:      uniformNoise(t, 4, 0.1),
			Protocol:   ssf,
			Seed:       seed,
			Corruption: sim.CorruptWrongConsensus,
		}
		env := cfg.Env()
		window, _, err := ssf.RunBounds(env)
		if err != nil {
			t.Fatal(err)
		}
		cfg.StabilityWindow = window
		conv, err := ssf.ConvergenceRounds(env)
		if err != nil {
			t.Fatal(err)
		}
		// Asynchronous activation spreads the per-agent schedule over a
		// longer horizon; give it extra slack.
		cfg.MaxRounds = 12*conv + cfg.StabilityWindow
		r, err := sim.NewAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: SSF under asynchrony did not converge: %d/%d after %d rounds",
				seed, res.FinalCorrect, 250, res.Rounds)
		}
	}
}

// TestBoostingMatchesMeanField compares the simulated Majority Boosting
// trajectory with the analysis package's mean-field map: starting from the
// same post-listening fraction, the predicted and measured dynamics should
// cross the 90% mark within a couple of sub-phases of each other. At h = n
// every sub-phase is one round and every agent updates on n fresh samples,
// which is exactly the mean-field setting.
func TestBoostingMatchesMeanField(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 500
	const delta = 0.2
	cfg := sim.Config{
		N: n, H: n, Sources1: 1, Sources0: 0,
		Noise:        uniformNoise(t, 2, delta),
		Protocol:     protocol.NewSF(),
		Seed:         4,
		TrackHistory: true,
	}
	env := cfg.Env()
	_, phaseT, _, _, err := protocol.NewSF().Params(env)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run did not converge: %+v", res)
	}
	// History index 2T-1 is the round where weak opinions became opinions.
	start := 2 * phaseT
	if start >= len(res.History) {
		t.Fatalf("history too short: %d rounds, boosting starts at %d", len(res.History), start)
	}
	q0 := float64(res.History[start-1]) / n
	if q0 <= 0.5 {
		t.Skipf("unlucky seed: post-listening fraction %v <= 1/2", q0)
	}

	crossAt := func(traj []float64) int {
		for i, q := range traj {
			if q >= 0.9 {
				return i
			}
		}
		return len(traj)
	}
	predicted := analysis.BoostTrajectory(q0, n, delta, 10)
	predCross := crossAt(predicted)

	measured := make([]float64, 0, 11)
	for i := start - 1; i < len(res.History) && len(measured) < 11; i++ {
		measured = append(measured, float64(res.History[i])/n)
	}
	measCross := crossAt(measured)

	if diff := predCross - measCross; diff < -2 || diff > 2 {
		t.Fatalf("mean-field and simulation diverge: predicted 90%% at sub-phase %d, measured at %d (q0=%.3f)\npredicted %v\nmeasured %v",
			predCross, measCross, q0, predicted, measured)
	}
}

// TestSSFLongStability checks the second half of Definition 2: after
// converging, the system *remains* at the correct consensus — here for 12
// full memory-update cycles (each cycle replaces every agent's entire
// state), far beyond the two cycles used as the default window.
func TestSSFLongStability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ssf := protocol.NewSSF()
	cfg := sim.Config{
		N: 250, H: 32, Sources1: 1, Sources0: 0,
		Noise:      uniformNoise(t, 4, 0.1),
		Protocol:   ssf,
		Seed:       5,
		Corruption: sim.CorruptWrongConsensus,
	}
	env := cfg.Env()
	m, err := ssf.UpdateQuota(env)
	if err != nil {
		t.Fatal(err)
	}
	updateRounds := (m + cfg.H - 1) / cfg.H
	cfg.StabilityWindow = 12 * updateRounds
	conv, err := ssf.ConvergenceRounds(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRounds = 8*conv + cfg.StabilityWindow
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SSF did not hold consensus for 12 update cycles: %+v", res)
	}
	if res.Rounds-res.FirstAllCorrect+1 < cfg.StabilityWindow {
		t.Fatalf("stability accounting wrong: first=%d rounds=%d window=%d",
			res.FirstAllCorrect, res.Rounds, cfg.StabilityWindow)
	}
}
