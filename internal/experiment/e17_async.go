package experiment

import (
	"fmt"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e17Async pushes the self-stabilization claim past the paper's setting:
// under a *fully asynchronous* activation schedule (one uniformly random
// agent activates at a time; no common rounds exist at all), SSF — whose
// state machine never references a global clock — still converges from a
// wrong-consensus start, while SF, whose three phases assume agents advance
// in lockstep, collapses. This operationalizes the paper's statement that
// SSF "removes the simultaneous wake-up assumption".
func e17Async() Experiment {
	return Experiment{
		ID:       "E17",
		Title:    "Asynchronous activation: SSF robust, SF breaks",
		PaperRef: "Theorem 5 motivation (extension beyond synchronous rounds)",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{128, 256}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				ns = []int{256, 512, 1024}
				trials = opts.trialsOr(6)
			}
			const h = 32
			const delta = 0.1
			nm4, err := noise.Uniform(4, delta)
			if err != nil {
				return nil, err
			}
			nm2, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E17", Title: "Protocols under asynchronous scheduling", PaperRef: "Theorem 5"}
			table := report.NewTable(
				"Fully asynchronous activations, wrong-consensus start (h = 32, delta = 0.1)",
				"n", "protocol", "success", "median recovery",
			)
			// runAsync is runTrials on the asynchronous scheduler.
			runAsync := func(grid int, cfg sim.Config) (*trialBatch, error) {
				seeds, err := trialSeeds(opts, grid, trials)
				if err != nil {
					return nil, err
				}
				results, err := sim.RunSeeds(opts.ctx(), seeds, opts.Parallel, func(seed uint64) (*sim.AsyncRunner, error) {
					c := cfg
					c.Seed = seed
					return sim.NewAsync(c)
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: grid point %d: %w", grid, err)
				}
				return aggregate(results), nil
			}
			ssf := protocol.NewSSF()
			grid := 0
			for _, n := range ns {
				// SSF, asynchronous, on its own stability window and twice
				// its round cap: asynchrony spreads per-agent schedules.
				ssfCfg := sim.Config{
					N: n, H: h, Sources1: 1,
					Noise:      nm4,
					Protocol:   ssf,
					Corruption: sim.CorruptWrongConsensus,
				}
				_, maxRounds, err := ssf.RunBounds(ssfCfg.Env())
				if err != nil {
					return nil, err
				}
				ssfCfg.MaxRounds = 2 * maxRounds
				ssfBatch, err := runAsync(grid, ssfCfg)
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(n, "SSF", ssfBatch.SuccessRate(), ssfBatch.MedianRecovery())

				// SF, asynchronous, same generous budget and a stability
				// window so that its (undefined) completion has a fair
				// success criterion.
				sfProto := protocol.NewSF()
				budget := sfProto.Rounds(sim.Env{
					N: n, H: h, Alphabet: 2, Delta: delta, Sources: 1, Bias: 1,
				})
				sfBatch, err := runAsync(grid, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:           nm2,
					Protocol:        sfProto,
					Corruption:      sim.CorruptWrongConsensus,
					MaxRounds:       3 * budget,
					StabilityWindow: 10,
				})
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(n, "SF", sfBatch.SuccessRate(), sfBatch.MedianRecovery())
				opts.progress("E17: n=%d done (SSF %.2f, SF %.2f)", n, ssfBatch.SuccessRate(), sfBatch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Notef("SSF's guarantees carry over verbatim to asynchronous activation — no agent state references a shared clock; SF's phase structure does not survive the loss of lockstep")
			return art, nil
		},
	}
}
