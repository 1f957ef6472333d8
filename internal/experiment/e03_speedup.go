package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e3SpeedupH regenerates the paper's central quantitative message: the
// information-spreading time decreases linearly in the sample size h until
// the Θ(log n) floor. We sweep h at fixed n, δ, s and report duration,
// duration × h (which should be roughly flat before the floor), and the
// measured first-all-correct round.
func e3SpeedupH() Experiment {
	return Experiment{
		ID:       "E3",
		Title:    "Linear speedup in the sample size h",
		PaperRef: "Theorem 4 (1/h scaling); Abstract",
		Run: func(opts Options) (*Artifact, error) {
			n := 512
			hs := []int{8, 32, 128, 512}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				n = 2048
				hs = []int{1, 4, 16, 64, 256, 1024, 2048}
				trials = opts.trialsOr(5)
			}
			const delta = 0.2
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E3", Title: "SF rounds vs h", PaperRef: "Theorem 4"}
			table := report.NewTable(
				"Linear speedup in h (n fixed, delta = 0.2, single source)",
				"h", "duration", "duration*h", "median first-correct", "success",
			)
			var xs, durations []float64
			for g, h := range hs {
				batch, err := runTrials(opts, g, trials, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:    nm,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				dur := batch.MedianDuration()
				table.AddRow(h, dur, dur*float64(h), batch.MedianRecovery(), batch.SuccessRate())
				xs = append(xs, float64(h))
				durations = append(durations, dur)
				opts.progress("E3: h=%d done (success %.2f)", h, batch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series, report.NewSeries("SF duration vs h", xs, durations))

			// Shape check: before the log-floor, duration*h should be within
			// a small constant factor across h. Compare the first two grid
			// points (farthest from the floor).
			if len(durations) >= 2 {
				r0 := durations[0] * xs[0]
				r1 := durations[1] * xs[1]
				ratio := r1 / r0
				if ratio < 1 {
					ratio = 1 / ratio
				}
				art.Notef("duration×h across h=%g→%g varies by factor %.2f (1/h scaling predicts ≈1)", xs[0], xs[1], ratio)
			}
			if len(durations) >= 2 {
				first, last := durations[0], durations[len(durations)-1]
				art.Notef("overall speedup h=%g→%g: %.0fx fewer rounds (floor: Θ(log n) ≈ %.0f)", xs[0], xs[len(xs)-1], first/last, lnF(n))
			}
			return art, nil
		},
	}
}
