package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// e4NoiseSweep regenerates Theorem 4's dependence on the noise level: the
// dominant term of the SF running time scales as δ/(1−2δ)². We sweep δ at
// h = n (so the listening phases dominate as soon as δ is non-trivial) and
// compare the measured duration against the predicted factor.
func e4NoiseSweep() Experiment {
	return Experiment{
		ID:       "E4",
		Title:    "Noise dependence δ/(1−2δ)²",
		PaperRef: "Theorem 4 (noise term)",
		Run: func(opts Options) (*Artifact, error) {
			n := 512
			deltas := []float64{0.05, 0.15, 0.25, 0.35}
			trials := opts.trialsOr(5)
			if opts.Scale == ScaleFull {
				n = 2048
				deltas = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}
				trials = opts.trialsOr(8)
			}

			art := &Artifact{ID: "E4", Title: "SF rounds vs δ at h = n", PaperRef: "Theorem 4"}
			table := report.NewTable(
				"Noise sweep at h = n, single source",
				"delta", "predicted factor", "duration", "median first-correct", "success",
			)
			var xs, durations, predicted []float64
			for g, delta := range deltas {
				nm, err := noise.Uniform(2, delta)
				if err != nil {
					return nil, err
				}
				batch, err := runTrials(opts, g, trials, sim.Config{
					N: n, H: n, Sources1: 1, Sources0: 0,
					Noise:    nm,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				factor := delta / ((1 - 2*delta) * (1 - 2*delta))
				dur := batch.MedianDuration()
				table.AddRow(delta, factor, dur, batch.MedianRecovery(), batch.SuccessRate())
				xs = append(xs, delta)
				durations = append(durations, dur)
				predicted = append(predicted, factor)
				opts.progress("E4: delta=%.2f done (success %.2f)", delta, batch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SF duration vs delta", xs, durations),
				report.NewSeries("predicted delta/(1-2delta)^2", xs, predicted),
			)

			// Shape check: correlation between measured duration and the
			// predicted factor (above the additive floor) should be strongly
			// positive and near-linear.
			if fit, err := stats.LinearFit(predicted, durations); err == nil {
				art.Notef("duration vs predicted factor: linear fit R²=%.3f, slope %.1f (Theorem 4 predicts proportionality plus an O(log n) floor)", fit.R2, fit.Slope)
			}
			return art, nil
		},
	}
}
