package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e7SelfStab regenerates Theorem 5: SSF reaches (and holds) consensus on
// the correct opinion from adversarially corrupted initial configurations,
// in O(δ·n·log n/(h(1−4δ)²) + n/h) rounds. As a contrast we run SF — which
// Theorem 4 does *not* claim to be self-stabilizing — under the same
// adversary.
func e7SelfStab() Experiment {
	return Experiment{
		ID:       "E7",
		Title:    "Self-stabilization of SSF under adversarial initialization",
		PaperRef: "Theorem 5 (Algorithm 2)",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{128, 256, 512}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				ns = []int{256, 512, 1024, 2048}
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

			art := &Artifact{ID: "E7", Title: "SSF recovery from corruption", PaperRef: "Theorem 5"}
			ssf := protocol.NewSSF()
			table := report.NewTable(
				"SSF under adversarial initialization (h = 32, delta = 0.1, s = 1)",
				"n", "adversary", "median recovery", "bound shape n·ln n/h", "success",
			)
			var xs, recoveries []float64
			grid := 0
			for _, n := range ns {
				for _, mode := range []sim.CorruptionMode{sim.CorruptWrongConsensus, sim.CorruptRandom} {
					batch, err := runTrials(opts, grid, trials, sim.Config{
						N: n, H: h, Sources1: 1,
						Noise:      nm4,
						Protocol:   ssf,
						Corruption: mode,
					})
					grid++
					if err != nil {
						return nil, err
					}
					shape := float64(n) * lnF(n) / float64(h)
					table.AddRow(n, mode.String(), batch.MedianRecovery(), shape, batch.SuccessRate())
					if mode == sim.CorruptWrongConsensus {
						xs = append(xs, float64(n))
						recoveries = append(recoveries, batch.MedianRecovery())
					}
					opts.progress("E7: n=%d %v done (success %.2f)", n, mode, batch.SuccessRate())
				}
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series, report.NewSeries("SSF recovery vs n (wrong-consensus start)", xs, recoveries))

			// Contrast: SF under the same wrong-consensus adversary (clock
			// and counter corruption breaks its phase structure).
			sfTable := report.NewTable(
				"Contrast: SF under the same adversary (not self-stabilizing)",
				"n", "success",
			)
			for i, n := range ns {
				batch, err := runTrials(opts, grid+i, trials, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:      nm2,
					Protocol:   protocol.NewSF(),
					Corruption: sim.CorruptWrongConsensus,
				})
				if err != nil {
					return nil, err
				}
				sfTable.AddRow(n, batch.SuccessRate())
			}
			art.Tables = append(art.Tables, sfTable)

			if len(recoveries) >= 2 {
				art.Notef("SSF recovery grows with n (≈ n·ln n/h per Theorem 5): %.0f → %.0f rounds across n=%d→%d",
					recoveries[0], recoveries[len(recoveries)-1], ns[0], ns[len(ns)-1])
			}
			return art, nil
		},
	}
}
