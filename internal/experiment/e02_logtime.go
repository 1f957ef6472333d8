package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// e2LogTime regenerates the headline claim of Theorem 4: with h = n,
// constant δ, and a single source, SF spreads information in O(log n)
// rounds. We sweep n with h = n and report the protocol duration (its fixed
// schedule) and the measured first-all-correct round, then fit both against
// ln n.
func e2LogTime() Experiment {
	return Experiment{
		ID:       "E2",
		Title:    "O(log n) spreading at h = n",
		PaperRef: "Theorem 4 (h = n regime)",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{128, 256, 512, 1024}
			trials := opts.trialsOr(5)
			if opts.Scale == ScaleFull {
				ns = []int{256, 512, 1024, 2048, 4096}
				trials = opts.trialsOr(10)
			}
			const delta = 0.2
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E2", Title: "SF rounds vs n at h = n", PaperRef: "Theorem 4"}
			table := report.NewTable(
				"Theorem 4 at h = n, delta = 0.2, single source",
				"n", "duration", "duration/ln n", "median first-correct", "success",
			)
			var xs, durations, recoveries []float64
			for g, n := range ns {
				batch, err := runTrials(opts, g, trials, sim.Config{
					N: n, H: n, Sources1: 1, Sources0: 0,
					Noise:    nm,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				dur := batch.MedianDuration()
				rec := batch.MedianRecovery()
				logn := lnF(n)
				table.AddRow(n, dur, dur/logn, rec, batch.SuccessRate())
				xs = append(xs, float64(n))
				durations = append(durations, dur)
				if rec > 0 {
					recoveries = append(recoveries, rec)
				} else {
					recoveries = append(recoveries, dur)
				}
				opts.progress("E2: n=%d done (success %.2f)", n, batch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SF duration", xs, durations),
				report.NewSeries("first all-correct", xs, recoveries),
			)

			if fit, err := stats.SemiLogXFit(xs, durations); err == nil {
				art.Notef("duration vs ln n: slope %.1f rounds per ln n, R²=%.3f (Theorem 4 predicts Θ(log n))", fit.Slope, fit.R2)
			}
			if fit, err := stats.LogLogFit(xs, durations); err == nil {
				art.Notef("log-log slope %.2f (≈0 means logarithmic, 1 would mean linear)", fit.Slope)
			}
			return art, nil
		},
	}
}
