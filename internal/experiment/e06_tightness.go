package experiment

import (
	"noisypull/internal/bound"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e6Tightness compares the measured SF running time against the Theorem 3
// lower bound: per the remark after Theorem 4, the ratio should be O(log n)
// in the regime δ ≥ 4s/√n, s0+s1 ≤ √n. We sweep n and report
// duration / LB and (duration / LB) / ln n, which should flatten.
func e6Tightness() Experiment {
	return Experiment{
		ID:       "E6",
		Title:    "Upper bound vs Theorem 3 lower bound (log-factor gap)",
		PaperRef: "Theorem 3 + Theorem 4 remark",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{128, 256, 512}
			trials := opts.trialsOr(4)
			h := 16
			if opts.Scale == ScaleFull {
				ns = []int{256, 512, 1024, 2048}
				trials = opts.trialsOr(6)
			}
			const delta = 0.2
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E6", Title: "SF duration over Theorem 3 lower bound", PaperRef: "Theorems 3 and 4"}
			table := report.NewTable(
				"Tightness: measured SF rounds vs lower bound (h = 16, delta = 0.2, s = 1)",
				"n", "lower bound", "duration", "ratio", "ratio/ln n", "success",
			)
			var xs, normRatios []float64
			for g, n := range ns {
				lb, err := bound.LowerBound(bound.Params{
					N: n, H: h, Alphabet: 2, Delta: delta, Bias: 1, Sources: 1,
				})
				if err != nil {
					return nil, err
				}
				batch, err := runTrials(opts, g, trials, sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:    nm,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				dur := batch.MedianDuration()
				ratio := dur / lb
				table.AddRow(n, lb, dur, ratio, ratio/lnF(n), batch.SuccessRate())
				xs = append(xs, float64(n))
				normRatios = append(normRatios, ratio/lnF(n))
				opts.progress("E6: n=%d done (ratio/ln n = %.1f)", n, ratio/lnF(n))
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series, report.NewSeries("(duration/LB)/ln n", xs, normRatios))

			if len(normRatios) >= 2 {
				first, last := normRatios[0], normRatios[len(normRatios)-1]
				drift := last / first
				art.Notef("(duration/LB)/ln n drifts by factor %.2f across the n range (≈1 means the gap is exactly the predicted log factor)", drift)
			}
			return art, nil
		},
	}
}
