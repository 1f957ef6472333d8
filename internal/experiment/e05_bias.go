package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e5BiasSweep regenerates Theorem 4's bias dependence: the dominant term
// scales as 1/s² (until min{s², n} saturates or the √n/s and log-floor
// terms take over). We sweep the number of agreeing sources at fixed n, h,
// δ and report duration together with duration·s².
func e5BiasSweep() Experiment {
	return Experiment{
		ID:       "E5",
		Title:    "Bias dependence 1/s²",
		PaperRef: "Theorem 4 (bias term)",
		Run: func(opts Options) (*Artifact, error) {
			n := 512
			biases := []int{1, 2, 4, 8, 16}
			trials := opts.trialsOr(5)
			if opts.Scale == ScaleFull {
				n = 2048
				biases = []int{1, 2, 4, 8, 16, 32, 64}
				trials = opts.trialsOr(8)
			}
			const delta = 0.2
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E5", Title: "SF rounds vs bias s", PaperRef: "Theorem 4"}
			table := report.NewTable(
				"Bias sweep (all sources agree, h = 64, delta = 0.2)",
				"s", "duration", "duration*s^2", "median first-correct", "success",
			)
			var xs, durations []float64
			for g, s := range biases {
				batch, err := runTrials(opts, g, trials, sim.Config{
					N: n, H: 64, Sources1: s, Sources0: 0,
					Noise:    nm,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				dur := batch.MedianDuration()
				table.AddRow(s, dur, dur*float64(s*s), batch.MedianRecovery(), batch.SuccessRate())
				xs = append(xs, float64(s))
				durations = append(durations, dur)
				opts.progress("E5: s=%d done (success %.2f)", s, batch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series, report.NewSeries("SF duration vs s", xs, durations))

			if len(durations) >= 2 {
				art.Notef("s=%g→%g shortened duration by %.1fx (1/s² predicts %.0fx before other terms dominate)",
					xs[0], xs[1], durations[0]/durations[1], (xs[1]/xs[0])*(xs[1]/xs[0]))
				art.Notef("tail flattens when √n·ln n/s and h·ln n terms dominate — the crossover the theorem's min/additive structure predicts")
			}
			return art, nil
		},
	}
}
