package experiment

import (
	"math"

	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// e19Memory checks the memory clause of Theorems 4 and 5: both protocols
// use O(log T + log h) bits of state per agent. We sweep the population
// size over several orders of magnitude (no simulation needed — the state
// ranges are determined by the protocol parameters) and verify the
// measured bits grow like log₂ T + log₂ h with a bounded constant.
func e19Memory() Experiment {
	return Experiment{
		ID:       "E19",
		Title:    "Per-agent memory is O(log T + log h) bits",
		PaperRef: "Theorems 4 and 5 (memory clause)",
		Run: func(opts Options) (*Artifact, error) {
			ns := []int{1 << 8, 1 << 12, 1 << 16, 1 << 20}
			if opts.Scale == ScaleFull {
				ns = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 24}
			}
			const delta2 = 0.2
			const delta4 = 0.1

			art := &Artifact{ID: "E19", Title: "Agent state bits vs log T + log h", PaperRef: "Theorems 4/5"}
			table := report.NewTable(
				"Per-agent state (h = 32, single source)",
				"n", "SF rounds T", "SF bits", "SF bits/(lgT+lgh)", "SSF bits", "SSF bits/(lgT+lgh)",
			)
			sf := protocol.NewSF()
			ssf := protocol.NewSSF()
			var xs, sfRatios, ssfRatios []float64
			const h = 32
			for _, n := range ns {
				envSF := sim.Env{N: n, H: h, Alphabet: 2, Delta: delta2, Sources: 1, Bias: 1}
				envSSF := sim.Env{N: n, H: h, Alphabet: 4, Delta: delta4, Sources: 1, Bias: 1}
				sfBits, err := sf.MemoryBits(envSF)
				if err != nil {
					return nil, err
				}
				ssfBits, err := ssf.MemoryBits(envSSF)
				if err != nil {
					return nil, err
				}
				tSF := sf.Rounds(envSF)
				ssfM, err := ssf.UpdateQuota(envSSF)
				if err != nil {
					return nil, err
				}
				tSSF := 3 * ((ssfM + h - 1) / h)
				denomSF := math.Log2(float64(tSF)) + math.Log2(h)
				denomSSF := math.Log2(float64(tSSF)) + math.Log2(h)
				table.AddRow(n, tSF, sfBits, float64(sfBits)/denomSF, ssfBits, float64(ssfBits)/denomSSF)
				xs = append(xs, float64(n))
				sfRatios = append(sfRatios, float64(sfBits)/denomSF)
				ssfRatios = append(ssfRatios, float64(ssfBits)/denomSSF)
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SF bits/(lg T + lg h)", xs, sfRatios),
				report.NewSeries("SSF bits/(lg T + lg h)", xs, ssfRatios),
			)

			// Shape check: the normalized ratios must stay bounded (flat or
			// decreasing) while n spans orders of magnitude.
			for _, c := range []struct {
				name   string
				ratios []float64
			}{{"SF", sfRatios}, {"SSF", ssfRatios}} {
				s := stats.Summarize(c.ratios)
				art.Notef("%s: bits/(lg T + lg h) stays in [%.2f, %.2f] across n = %d…%d — the O(log T + log h) memory clause",
					c.name, s.Min, s.Max, ns[0], ns[len(ns)-1])
			}
			return art, nil
		},
	}
}
