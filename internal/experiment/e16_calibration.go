package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e16Calibration reproduces the calibration of the paper's "sufficiently
// large constant" c1 (Eq. 19 / Eq. 30): success rate as a function of c1
// for both protocols. The library's DefaultC1 is the smallest value in
// this sweep whose success rate is ≥ 0.95 on every grid row (see the
// constant's doc comment and EXPERIMENTS.md).
func e16Calibration() Experiment {
	return Experiment{
		ID:       "E16",
		Title:    "Calibration of the protocol constant c1",
		PaperRef: "Eq. (19), Eq. (30) — 'sufficiently large constant'",
		Run: func(opts Options) (*Artifact, error) {
			c1s := []float64{0.5, 1, 2, 4}
			n := 300
			trials := opts.trialsOr(8)
			if opts.Scale == ScaleFull {
				c1s = []float64{0.25, 0.5, 1, 2, 4, 8}
				n = 500
				trials = opts.trialsOr(20)
			}
			const h = 32
			nm2, err := noise.Uniform(2, 0.2)
			if err != nil {
				return nil, err
			}
			nm4, err := noise.Uniform(4, 0.1)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E16", Title: "Success rate vs c1", PaperRef: "Eq. 19 / Eq. 30"}
			table := report.NewTable(
				"Success vs protocol constant (single source)",
				"c1", "SF success (d=0.2)", "SSF success (d=0.1, corrupted)", "SF duration",
			)
			var xs, sfRates, ssfRates []float64
			grid := 0
			for _, c1 := range c1s {
				sfBatch, err := runTrials(opts, grid, trials, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:    nm2,
					Protocol: protocol.NewSF(protocol.WithSFConstant(c1)),
				})
				grid++
				if err != nil {
					return nil, err
				}
				ssf := protocol.NewSSF(protocol.WithSSFConstant(c1))
				ssfBatch, err := runTrials(opts, grid, trials, sim.Config{
					N: n, H: h, Sources1: 1,
					Noise:      nm4,
					Protocol:   ssf,
					Corruption: sim.CorruptWrongConsensus,
				})
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(c1, sfBatch.SuccessRate(), ssfBatch.SuccessRate(), sfBatch.MedianDuration())
				xs = append(xs, c1)
				sfRates = append(sfRates, sfBatch.SuccessRate())
				ssfRates = append(ssfRates, ssfBatch.SuccessRate())
				opts.progress("E16: c1=%.2g done (SF %.2f, SSF %.2f)", c1, sfBatch.SuccessRate(), ssfBatch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SF success vs c1", xs, sfRates),
				report.NewSeries("SSF success vs c1", xs, ssfRates),
			)
			art.Notef("success is monotone in c1 with a sharp knee — the empirical content of the paper's 'sufficiently large constant'; runtime grows linearly in c1, so DefaultC1 = %.0f sits just past the knee", protocol.DefaultC1)
			return art, nil
		},
	}
}
