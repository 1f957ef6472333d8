package experiment

import (
	"fmt"
	"math"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/rng"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// e10Reduction regenerates Theorem 8 / Proposition 16 end to end:
//
//  1. numerically — for random δ-upper-bounded matrices N, the computed
//     artificial noise P is stochastic and N·P is f(δ)-uniform;
//  2. statistically — messages pushed through N then P are distributed as
//     through T = N·P directly (chi-square test);
//  3. operationally — SF parameterized at δ′ = f(δ) converges under the
//     non-uniform channel N with agents applying P.
func e10Reduction() Experiment {
	return Experiment{
		ID:       "E10",
		Title:    "Artificial-noise reduction of non-uniform channels",
		PaperRef: "Theorem 8, Proposition 16, Definition 6",
		Run: func(opts Options) (*Artifact, error) {
			matrices := 20
			draws := 100000
			sfTrials := opts.trialsOr(3)
			if opts.Scale == ScaleFull {
				matrices = 100
				draws = 400000
				sfTrials = opts.trialsOr(6)
			}

			art := &Artifact{ID: "E10", Title: "Theorem 8 reduction pipeline", PaperRef: "Theorem 8"}
			r := rng.New(opts.Seed ^ 0xabcdef)

			// (1) Numeric validation over random matrices.
			numTable := report.NewTable(
				"Random δ-upper-bounded matrices: reduction validity",
				"d", "matrices", "max |N·P − T|", "min P entry", "all stochastic",
			)
			for _, d := range []int{2, 4} {
				var maxDev float64
				minEntry := math.Inf(1)
				allStochastic := true
				for i := 0; i < matrices; i++ {
					target := (0.1 + 0.8*r.Float64()) / float64(d)
					nm := randomUpperBounded(r, d, target)
					red, err := noise.Reduce(nm)
					if err != nil {
						return nil, fmt.Errorf("reduce %d-symbol matrix: %w", d, err)
					}
					prod, err := noise.Compose(nm, red.P)
					if err != nil {
						return nil, err
					}
					dev, err := prod.Linalg().MaxAbsDiff(red.T.Linalg())
					if err != nil {
						return nil, err
					}
					maxDev = math.Max(maxDev, dev)
					for i := 0; i < d; i++ {
						for j := 0; j < d; j++ {
							minEntry = math.Min(minEntry, red.P.At(i, j))
						}
					}
					if !red.P.Linalg().IsStochastic(1e-9) {
						allStochastic = false
					}
				}
				numTable.AddRow(d, matrices, maxDev, minEntry, allStochastic)
			}
			art.Tables = append(art.Tables, numTable)

			// (2) Statistical message-law equality (Definition 6).
			nm, err := noise.TwoSymbol(0.12, 0.25)
			if err != nil {
				return nil, err
			}
			red, err := noise.Reduce(nm)
			if err != nil {
				return nil, err
			}
			cn, err := noise.NewChannel(nm)
			if err != nil {
				return nil, err
			}
			cp, err := noise.NewChannel(red.P)
			if err != nil {
				return nil, err
			}
			statTable := report.NewTable(
				"Message law through N then P vs the δ'-uniform target",
				"origin", "draws", "observed P(1)", "target P(1)", "chi-square", "critical (α=0.001)",
			)
			lawOK := true
			for origin := 0; origin < 2; origin++ {
				ones := 0
				for i := 0; i < draws; i++ {
					if cp.Apply(r, cn.Apply(r, origin)) == 1 {
						ones++
					}
				}
				want := red.DeltaPrime
				if origin == 1 {
					want = 1 - red.DeltaPrime
				}
				obs := []int{draws - ones, ones}
				exp := []float64{float64(draws) * (1 - want), float64(draws) * want}
				chi, df := stats.ChiSquare(obs, exp, 5)
				crit := stats.ChiSquareCritical(df, 0.001)
				if chi > crit {
					lawOK = false
				}
				statTable.AddRow(origin, draws, float64(ones)/float64(draws), want, chi, crit)
			}
			art.Tables = append(art.Tables, statTable)
			art.Notef("message-law equality (Definition 6) chi-square passed: %v", lawOK)

			// (3) End-to-end SF under the asymmetric channel via P.
			batch, err := runTrials(opts, 0, sfTrials, sim.Config{
				N: 400, H: 32, Sources1: 1, Sources0: 0,
				Noise:    nm,
				Protocol: protocol.NewSF(),
			})
			if err != nil {
				return nil, err
			}
			art.Notef("SF under asymmetric N=(0.12, 0.25) with artificial P at δ'=%.3f: success %.2f over %d trials",
				red.DeltaPrime, batch.SuccessRate(), batch.Trials)
			return art, nil
		},
	}
}

// randomUpperBounded builds a random delta-upper-bounded stochastic matrix.
func randomUpperBounded(r *rng.Stream, d int, delta float64) *noise.Matrix {
	rows := make([][]float64, d)
	for i := range rows {
		rows[i] = make([]float64, d)
		sum := 0.0
		for j := 0; j < d; j++ {
			if j == i {
				continue
			}
			v := r.Float64() * delta
			rows[i][j] = v
			sum += v
		}
		rows[i][i] = 1 - sum
	}
	nm, err := noise.FromRows(rows)
	if err != nil {
		panic(err) // construction guarantees stochasticity
	}
	return nm
}
