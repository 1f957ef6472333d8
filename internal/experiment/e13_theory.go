package experiment

import (
	"math"

	"noisypull/internal/analysis"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e13Theory cross-checks the simulator against the paper's analysis: the
// measured fraction of correct weak opinions after SF's listening phases
// must match the closed-form prediction derived from the Lemma 28
// observation law (package analysis), within binomial sampling error. This
// validates both the simulator's observation distribution and the
// analytical machinery at once.
func e13Theory() Experiment {
	return Experiment{
		ID:       "E13",
		Title:    "Weak-opinion accuracy: theory vs simulation",
		PaperRef: "Lemma 28 / Lemma 23 (extension: exact analysis)",
		Run: func(opts Options) (*Artifact, error) {
			type point struct {
				n, h, s1, s0 int
				delta        float64
			}
			grid := []point{
				{300, 32, 1, 0, 0.1},
				{300, 32, 1, 0, 0.25},
				{300, 32, 4, 1, 0.2},
			}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				grid = []point{
					{1000, 64, 1, 0, 0.1},
					{1000, 64, 1, 0, 0.25},
					{1000, 64, 1, 0, 0.4},
					{1000, 64, 4, 1, 0.2},
					{1000, 64, 10, 5, 0.2},
				}
				trials = opts.trialsOr(8)
			}

			art := &Artifact{ID: "E13", Title: "Predicted vs measured weak-opinion accuracy", PaperRef: "Lemma 28"}
			table := report.NewTable(
				"SF weak opinions: closed-form prediction vs simulation",
				"n", "h", "s1", "s0", "delta", "m", "predicted", "measured", "z-score", "agree",
			)
			allAgree := true
			var ex sim.Executor[*sim.Runner, int]
			defer ex.Close()
			for g, pt := range grid {
				pt := pt
				nm, err := noise.Uniform(2, pt.delta)
				if err != nil {
					return nil, err
				}
				sf := protocol.NewSF()
				env := sim.Env{
					N: pt.n, H: pt.h, Alphabet: 2, Delta: pt.delta,
					Sources: pt.s1 + pt.s0, Bias: pt.s1 - pt.s0,
				}
				m, _, _, _, err := sf.Params(env)
				if err != nil {
					return nil, err
				}
				predicted, err := analysis.PredictSF(analysis.Params{
					N: pt.n, S1: pt.s1, S0: pt.s0, Delta: pt.delta, M: m,
				})
				if err != nil {
					return nil, err
				}

				// Measure: pool weak opinions over agents and trials.
				correct, total, err := weakOpinions(opts, &ex, g, trials, sim.Config{
					N: pt.n, H: pt.h, Sources1: pt.s1, Sources0: pt.s0, Noise: nm, Protocol: sf,
				})
				if err != nil {
					return nil, err
				}
				measured := float64(correct) / float64(total)
				// Weak opinions are i.i.d. across agents (Lemma 28), so the
				// pooled estimate is binomial.
				se := math.Sqrt(predicted * (1 - predicted) / float64(total))
				z := (measured - predicted) / se
				agree := math.Abs(z) < 4
				if !agree {
					allAgree = false
				}
				table.AddRow(pt.n, pt.h, pt.s1, pt.s0, pt.delta, m, predicted, measured, z, agree)
				opts.progress("E13: n=%d delta=%.2f done (z=%.2f)", pt.n, pt.delta, z)
			}
			art.Tables = append(art.Tables, table)
			art.Notef("simulation matches the Lemma 28 closed-form weak-opinion law at |z| < 4 on every grid point: %v", allAgree)

			// SSF: the Lemma 36 law is *stationary* — a weak opinion formed
			// at any update round is distributed by the same formula
			// regardless of the population state, because forged source
			// tags carry uniformly random value bits. So we can run SSF to
			// convergence and measure the final weak opinions.
			ssfTable := report.NewTable(
				"SSF weak opinions (stationary Lemma 36 law) vs simulation",
				"n", "h", "delta", "m", "predicted", "measured", "z-score", "agree",
			)
			ssfGrid := []struct {
				n, h  int
				delta float64
			}{
				{300, 32, 0.1},
			}
			if opts.Scale == ScaleFull {
				ssfGrid = append(ssfGrid, struct {
					n, h  int
					delta float64
				}{1000, 64, 0.15})
			}
			for g, pt := range ssfGrid {
				pt := pt
				nm4, err := noise.Uniform(4, pt.delta)
				if err != nil {
					return nil, err
				}
				ssf := protocol.NewSSF()
				m, err := ssf.UpdateQuota(sim.Env{
					N: pt.n, H: pt.h, Alphabet: 4, Delta: pt.delta, Sources: 1, Bias: 1,
				})
				if err != nil {
					return nil, err
				}
				predicted, err := analysis.PredictSSF(analysis.Params{
					N: pt.n, S1: 1, S0: 0, Delta: pt.delta, M: m,
				})
				if err != nil {
					return nil, err
				}
				correct, total, err := weakOpinions(opts, &ex, 100+g, trials, sim.Config{
					N: pt.n, H: pt.h, Sources1: 1,
					Noise:    nm4,
					Protocol: ssf,
				})
				if err != nil {
					return nil, err
				}
				measured := float64(correct) / float64(total)
				se := math.Sqrt(predicted * (1 - predicted) / float64(total))
				z := (measured - predicted) / se
				agree := math.Abs(z) < 4
				if !agree {
					allAgree = false
				}
				ssfTable.AddRow(pt.n, pt.h, pt.delta, m, predicted, measured, z, agree)
				opts.progress("E13: SSF n=%d delta=%.2f done (z=%.2f)", pt.n, pt.delta, z)
			}
			art.Tables = append(art.Tables, ssfTable)
			art.Notef("SSF weak opinions at stationarity match the Lemma 36 law (source-tag forgeries carry uniform value bits, making the law state-independent)")

			// Bonus: the mean-field boosting trajectory (Lemma 33 drift)
			// from the predicted initial accuracy reaches consensus within
			// the protocol's sub-phase budget.
			w := int(math.Ceil(100.0 / (0.6 * 0.6)))
			traj := analysis.BoostTrajectory(0.55, w, 0.2, 10)
			art.Notef("mean-field boosting from 0.55 with w=%d, delta=0.2 reaches %.4f after 10 sub-phases (Lemma 33 drift)", w, traj[len(traj)-1])
			return art, nil
		},
	}
}

// weakOpinions runs a grid point's trials of cfg on ex, keyed by the grid
// point, so one single-worker runner serves them all, rewound with Reset for
// each trial's seed, and pools the weak opinions formed (total) and those
// equal to 1, E13's correct opinion (correct).
func weakOpinions(opts Options, ex *sim.Executor[*sim.Runner, int], gridPoint, trials int, cfg sim.Config) (correct, total int, err error) {
	seeds, err := trialSeeds(opts, gridPoint, trials)
	if err != nil {
		return 0, 0, err
	}
	cfg.Workers = 1
	build := func(seed uint64) (*sim.Runner, error) {
		c := cfg
		c.Seed = seed
		return sim.New(c)
	}
	// The executor hands its runner to prepare before each run and keeps it
	// after, so the weak opinions are read off the runner prepare saw.
	var runner *sim.Runner
	hold := func(r *sim.Runner) error {
		runner = r
		return nil
	}
	for _, seed := range seeds {
		if _, err := ex.Run(opts.ctx(), gridPoint, seed, build, hold); err != nil {
			return 0, 0, err
		}
		for i := 0; i < cfg.N; i++ {
			if w, ok := runner.AgentWeakOpinion(i); ok {
				total++
				if w == 1 {
					correct++
				}
			}
		}
	}
	return correct, total, nil
}
