package experiment

import (
	"fmt"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e11Baselines regenerates the paper's motivating comparison (§1.2 and
// footnote 2): under noisy PULL communication, the natural strategies —
// copying (voter), per-round majority, and trusting a designated "I am a
// source" bit — fail to spread the sources' opinion, while SF succeeds
// within its fixed budget. Every baseline gets twice SF's round budget.
func e11Baselines() Experiment {
	return Experiment{
		ID:       "E11",
		Title:    "SF vs naive baselines under noise",
		PaperRef: "§1.2 intro claims, footnote 2",
		Run: func(opts Options) (*Artifact, error) {
			n := 512
			hs := []int{4, 32}
			trials := opts.trialsOr(5)
			if opts.Scale == ScaleFull {
				n = 1024
				hs = []int{4, 32, 256}
				trials = opts.trialsOr(8)
			}
			const delta = 0.2
			nm2, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}
			nm4, err := noise.Uniform(4, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E11", Title: "Baseline comparison", PaperRef: "§1.2"}
			table := report.NewTable(
				fmt.Sprintf("Success within 2× SF's budget (n = %d, delta = %.1f, single source)", n, delta),
				"h", "protocol", "success", "median stabilize",
			)
			grid := 0
			for _, h := range hs {
				sfProto := protocol.NewSF()
				budget := sfProto.Rounds(sim.Env{
					N: n, H: h, Alphabet: 2, Delta: delta, Sources: 1, Bias: 1,
				})
				if budget <= 0 {
					return nil, fmt.Errorf("experiment: SF budget unavailable for h=%d", h)
				}

				sfBatch, err := runTrials(opts, grid, trials, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise: nm2, Protocol: sfProto,
				})
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(h, "SF", sfBatch.SuccessRate(), sfBatch.MedianRecovery())

				type baseline struct {
					name  string
					proto sim.Protocol
					noise *noise.Matrix
				}
				for _, b := range []baseline{
					{"voter", protocol.Voter{}, nm2},
					{"majority", protocol.MajorityRule{}, nm2},
					{"trust-bit", protocol.TrustBit{}, nm4},
				} {
					batch, err := runTrials(opts, grid, trials, sim.Config{
						N: n, H: h, Sources1: 1, Sources0: 0,
						Noise:           b.noise,
						Protocol:        b.proto,
						MaxRounds:       2 * budget,
						StabilityWindow: 10,
					})
					grid++
					if err != nil {
						return nil, err
					}
					table.AddRow(h, b.name, batch.SuccessRate(), batch.MedianRecovery())
				}
				opts.progress("E11: h=%d done", h)
			}
			art.Tables = append(art.Tables, table)
			art.Notef("SF succeeds at its scheduled budget; voter/majority/trust-bit do not reliably stabilize on the sources' opinion even with twice the budget — the §1.2 claim that structureless noisy communication defeats naive spreading")
			return art, nil
		},
	}
}
