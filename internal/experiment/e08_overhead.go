package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e8Overhead quantifies the price of self-stabilization: on matched
// (n, h, δ) instances, SSF's convergence time versus SF's. Theorem 5's
// bound lacks Theorem 4's min{s²,n} acceleration and carries the (1−4δ)⁻²
// (rather than (1−2δ)⁻²) noise penalty, so SSF is expected to be slower by
// a constant-to-logarithmic factor at s = 1 and by growing factors at
// larger bias.
func e8Overhead() Experiment {
	return Experiment{
		ID:       "E8",
		Title:    "Cost of self-stabilization: SSF vs SF",
		PaperRef: "Theorem 4 vs Theorem 5",
		Run: func(opts Options) (*Artifact, error) {
			type point struct{ n, h, s1, s0 int }
			grid := []point{
				{256, 32, 1, 0},
				{512, 32, 1, 0},
				{512, 32, 8, 0},
			}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				grid = []point{
					{512, 32, 1, 0},
					{1024, 32, 1, 0},
					{1024, 128, 1, 0},
					{1024, 32, 16, 0},
				}
				trials = opts.trialsOr(6)
			}
			const delta = 0.1
			nm2, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}
			nm4, err := noise.Uniform(4, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E8", Title: "SSF/SF round overhead", PaperRef: "Theorems 4 and 5"}
			ssf := protocol.NewSSF()
			table := report.NewTable(
				"SSF vs SF on matched instances (delta = 0.1)",
				"n", "h", "s", "SF duration", "SSF recovery", "overhead", "SF ok", "SSF ok",
			)
			for g, pt := range grid {
				sfBatch, err := runTrials(opts, 2*g, trials, sim.Config{
					N: pt.n, H: pt.h, Sources1: pt.s1, Sources0: pt.s0,
					Noise:    nm2,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				ssfBatch, err := runTrials(opts, 2*g+1, trials, sim.Config{
					N: pt.n, H: pt.h, Sources1: pt.s1, Sources0: pt.s0,
					Noise:    nm4,
					Protocol: ssf,
				})
				if err != nil {
					return nil, err
				}
				sfDur := sfBatch.MedianDuration()
				ssfRec := ssfBatch.MedianRecovery()
				overhead := 0.0
				if sfDur > 0 {
					overhead = ssfRec / sfDur
				}
				table.AddRow(pt.n, pt.h, pt.s1-pt.s0, sfDur, ssfRec, overhead,
					sfBatch.SuccessRate(), ssfBatch.SuccessRate())
				opts.progress("E8: n=%d h=%d s=%d done (overhead %.2f)", pt.n, pt.h, pt.s1-pt.s0, overhead)
			}
			art.Tables = append(art.Tables, table)
			art.Notef("overhead grows with bias: SSF cannot exploit s (Theorem 5 has no min{s²,n} term), so large-bias instances favor SF most")
			return art, nil
		},
	}
}
