package experiment

import (
	"fmt"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// e9Plurality regenerates the conflicting-sources claim: both protocols
// converge to the *plurality* preference among sources, including when a
// large minority pushes the other opinion and when the bias is the minimum
// s = 1. Wrong-preference sources must flip too (Definition 2).
func e9Plurality() Experiment {
	return Experiment{
		ID:       "E9",
		Title:    "Plurality consensus with conflicting sources",
		PaperRef: "Problem definition §1.3, Definition 2",
		Run: func(opts Options) (*Artifact, error) {
			n := 512
			pairs := [][2]int{{2, 1}, {6, 4}, {20, 10}, {40, 60}}
			trials := opts.trialsOr(4)
			if opts.Scale == ScaleFull {
				n = 2048
				pairs = [][2]int{{2, 1}, {6, 4}, {20, 10}, {60, 40}, {101, 100}, {160, 240}}
				trials = opts.trialsOr(6)
			}
			const h = 64
			const delta = 0.1
			nm2, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}
			nm4, err := noise.Uniform(4, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{ID: "E9", Title: "Plurality consensus among conflicting sources", PaperRef: "§1.3"}
			ssf := protocol.NewSSF()
			table := report.NewTable(
				fmt.Sprintf("Conflicting sources (n = %d, h = %d, delta = %.2f)", n, h, delta),
				"s1", "s0", "bias", "correct", "SF success", "SSF success",
			)
			for g, pair := range pairs {
				s1, s0 := pair[0], pair[1]
				sfBatch, err := runTrials(opts, 2*g, trials, sim.Config{
					N: n, H: h, Sources1: s1, Sources0: s0,
					Noise:    nm2,
					Protocol: protocol.NewSF(),
				})
				if err != nil {
					return nil, err
				}
				ssfBatch, err := runTrials(opts, 2*g+1, trials, sim.Config{
					N: n, H: h, Sources1: s1, Sources0: s0,
					Noise:    nm4,
					Protocol: ssf,
				})
				if err != nil {
					return nil, err
				}
				correct := 1
				if s0 > s1 {
					correct = 0
				}
				bias := s1 - s0
				if bias < 0 {
					bias = -bias
				}
				table.AddRow(s1, s0, bias, correct, sfBatch.SuccessRate(), ssfBatch.SuccessRate())
				opts.progress("E9: (%d,%d) done (SF %.2f, SSF %.2f)", s1, s0, sfBatch.SuccessRate(), ssfBatch.SuccessRate())
			}
			art.Tables = append(art.Tables, table)
			art.Notef("both protocols converge to the plurality preference even with a large conflicting minority, and regardless of which opinion is correct")
			return art, nil
		},
	}
}
