package experiment

import (
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
			ssf := protocol.NewSSF()
			grid := 0
			for _, n := range ns {
				n := n
				// SSF, asynchronous.
				makeSSF, err := ssfConfigFactory(ssf, n, h, 1, 0, nm4, sim.CorruptWrongConsensus)
				if err != nil {
					return nil, err
				}
				ssfBatch, err := runTrialsOn(newAsyncRunner, opts, grid, trials, func(seed uint64) sim.Config {
					cfg := makeSSF(seed)
					cfg.MaxRounds *= 2 // asynchrony spreads per-agent schedules
					return cfg
				})
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
				sfBatch, err := runTrialsOn(newAsyncRunner, opts, grid, trials, func(seed uint64) sim.Config {
					return sim.Config{
						N: n, H: h, Sources1: 1, Sources0: 0,
						Noise:           nm2,
						Protocol:        sfProto,
						Seed:            seed,
						Corruption:      sim.CorruptWrongConsensus,
						MaxRounds:       3 * budget,
						StabilityWindow: 10,
					}
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
