package experiment

import (
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// e12Separation regenerates the exponential separation between the h = 1
// and h = n regimes (Theorem 3's Ω(n) at h = O(1) vs Theorem 4's O(log n)
// at h = n): SF's running time at h = 1 grows essentially linearly in n
// (log-log slope ≈ 1), while the h = n curve of E2 grows logarithmically
// (log-log slope ≈ 0).
func e12Separation() Experiment {
	return Experiment{
		ID:       "E12",
		Title:    "Exponential separation between h = 1 and h = n",
		PaperRef: "Theorem 3 vs Theorem 4; §1.2",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{64, 128, 256}
			trials := opts.trialsOr(3)
			if opts.Scale == ScaleFull {
				ns = []int{64, 128, 256, 512, 1024}
				trials = opts.trialsOr(5)
			}
			const delta = 0.2
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E12", Title: "SF at h = 1 vs h = n", PaperRef: "Theorems 3 and 4"}
			table := report.NewTable(
				"h = 1 vs h = n (delta = 0.2, single source)",
				"n", "duration h=1", "duration h=n", "separation",
			)
			var xs, dur1, durN []float64
			for g, n := range ns {
				batch1, err := runTrials(opts, 2*g, trials, sim.Config{
					N: n, H: 1, Sources1: 1, Sources0: 0,
					Noise: nm, Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				batchN, err := runTrials(opts, 2*g+1, trials, sim.Config{
					N: n, H: n, Sources1: 1, Sources0: 0,
					Noise: nm, Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				d1 := batch1.MedianDuration()
				dn := batchN.MedianDuration()
				table.AddRow(n, d1, dn, d1/dn)
				xs = append(xs, float64(n))
				dur1 = append(dur1, d1)
				durN = append(durN, dn)
				opts.progress("E12: n=%d done (separation %.0fx)", n, d1/dn)
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SF duration h=1", xs, dur1),
				report.NewSeries("SF duration h=n", xs, durN),
			)

			if fit1, err := stats.LogLogFit(xs, dur1); err == nil {
				art.Notef("h=1 log-log slope %.2f (Theorem 3's Ω(n) regime predicts ≈1)", fit1.Slope)
			}
			if fitN, err := stats.LogLogFit(xs, durN); err == nil {
				art.Notef("h=n log-log slope %.2f (Theorem 4's O(log n) regime predicts ≈0)", fitN.Slope)
			}
			art.Notef("the widening duration gap is the linear-vs-logarithmic separation the paper's title result closes from above")
			return art, nil
		},
	}
}
