package experiment

import (
	"fmt"
	"sort"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// unboundedSF strips SF's sim.Finite interface so the engine runs it past
// its designed horizon: the agents keep majority-boosting forever on their
// own display pool. E21 uses it to show that extra rounds alone do not make
// SF self-stabilizing — the contrast Theorem 5 draws against Theorem 4. It
// forwards SF's kernel, so the run takes the same path as any SF run.
type unboundedSF struct{ p *protocol.SF }

func (u unboundedSF) Alphabet() int { return u.p.Alphabet() }
func (u unboundedSF) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	return u.p.NewVecPopulation(spec)
}

// e21Faults measures recovery from runtime fault injection: every agent
// (sources included) is hit by a wrong-consensus corruption mid-run, and the
// per-trial fault telemetry records when — if ever — the population returns
// to all-correct. SSF re-converges within its Theorem 5 horizon; SF, run
// past its finite horizon so it has every chance to fix itself, does not.
func e21Faults() Experiment {
	return Experiment{
		ID:       "E21",
		Title:    "Fault injection: recovery from mid-run corruption (SSF vs unbounded SF)",
		PaperRef: "Theorem 5 self-stabilization vs Theorem 4's finite horizon",
		Run: func(opts Options) (*Artifact, error) {
			n := 256
			trials := opts.trialsOr(8)
			hs := []int{4, 8}
			if opts.Scale == ScaleFull {
				n = 1024
				trials = opts.trialsOr(16)
				hs = []int{2, 4, 8, 16}
			}
			const delta = 0.1
			nm2, err := noise.Uniform(2, delta)
			if err != nil {
				return nil, err
			}
			nm4, err := noise.Uniform(4, delta)
			if err != nil {
				return nil, err
			}

			art := &Artifact{
				ID:       "E21",
				Title:    "Recovery-time curves after mid-run wrong-consensus corruption",
				PaperRef: "Theorem 5 vs Theorem 4",
			}
			table := report.NewTable(
				fmt.Sprintf("Recovery after corrupting every agent to the wrong consensus (n = %d, δ = %.1f, single source)", n, delta),
				"h", "protocol", "fault round", "post-fault budget", "recovery rate", "median delay", "p90 delay",
			)
			var hsX, ssfMed, sfRate []float64
			grid := 0
			for _, h := range hs {
				// SSF arm: fault one update cycle in — after the protocol has
				// had time to converge, and provably before the run can end
				// (the stability window is two update cycles, so the run
				// lasts at least that long).
				ssf := protocol.NewSSF()
				cfg := sim.Config{
					N: n, H: h, Sources1: 1,
					Noise:    nm4,
					Protocol: ssf,
				}
				window, budget, err := ssf.RunBounds(cfg.Env())
				if err != nil {
					return nil, err
				}
				faultRound := max(window/2, 1)
				cfg.Faults = &faults.Schedule{Events: []faults.Event{{
					Kind:       faults.KindCorrupt,
					Round:      faultRound,
					Fraction:   1,
					Corruption: faults.CorruptWrongConsensus,
				}}}
				// The pre-fault budget already covers one convergence; give
				// the recovery the same slack again. The engine keeps SSF's
				// window.
				cfg.MaxRounds = budget + faultRound + budget

				ssfStats, err := recoveryStats(opts, grid, trials, cfg, faultRound)
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(h, "SSF", faultRound, cfg.MaxRounds-faultRound, ssfStats.rate, ssfStats.median, ssfStats.p90)

				// SF arm: the fault lands just past SF's finite horizon — the
				// protocol has finished and holds the correct consensus — and
				// the run continues for four more horizons (SF converges from
				// scratch in one), so a recovery would be observable.
				sfProto := protocol.NewSF()
				sfCfg := sim.Config{
					N: n, H: h, Sources1: 1, Sources0: 0,
					Noise:    nm2,
					Protocol: unboundedSF{sfProto},
				}
				horizon := sfProto.Rounds(sfCfg.Env())
				if horizon <= 0 {
					return nil, fmt.Errorf("experiment: SF horizon unavailable for h=%d", h)
				}
				sfFault := horizon + 2
				post := 4 * horizon
				sfCfg.MaxRounds = sfFault + post
				sfCfg.StabilityWindow = sfCfg.MaxRounds // no early exit: observe the whole horizon
				sfCfg.Faults = &faults.Schedule{Events: []faults.Event{{
					Kind:       faults.KindCorrupt,
					Round:      sfFault,
					Fraction:   1,
					Corruption: faults.CorruptWrongConsensus,
				}}}

				sfStats, err := recoveryStats(opts, grid, trials, sfCfg, sfFault)
				grid++
				if err != nil {
					return nil, err
				}
				table.AddRow(h, "SF (unbounded)", sfFault, post, sfStats.rate, sfStats.median, sfStats.p90)

				hsX = append(hsX, float64(h))
				ssfMed = append(ssfMed, ssfStats.median)
				sfRate = append(sfRate, sfStats.rate)
				opts.progress("E21: h=%d done (SSF recovery %.0f%%, SF recovery %.0f%%)", h, 100*ssfStats.rate, 100*sfStats.rate)
			}
			art.Tables = append(art.Tables, table)
			art.Series = append(art.Series,
				report.NewSeries("SSF median recovery delay vs h", hsX, ssfMed),
				report.NewSeries("SF recovery rate vs h", hsX, sfRate),
			)
			art.Notef("SSF re-converges after a full-population wrong-consensus hit (Theorem 5's self-stabilization is a runtime property, not just an initialization guarantee); SF keeps the wrong consensus even with an unbounded round budget — boosting amplifies whatever majority the adversary installed")
			return art, nil
		},
	}
}

// recoveryOutcome aggregates per-trial fault telemetry at one grid point.
type recoveryOutcome struct {
	rate        float64 // fraction of trials with RecoveredAt > 0
	median, p90 float64 // recovery delays (RecoveredAt − fault round) among recovered trials
}

// recoveryStats runs trials of cfg and summarizes the recovery delays of its
// single scheduled fault.
func recoveryStats(opts Options, gridPoint, trials int, cfg sim.Config, faultRound int) (recoveryOutcome, error) {
	results, err := runTrialsRaw(opts, gridPoint, trials, cfg)
	if err != nil {
		return recoveryOutcome{}, err
	}
	var delays []float64
	recovered := 0
	for t, res := range results {
		if len(res.Faults) != 1 || res.Faults[0].Round != faultRound {
			return recoveryOutcome{}, fmt.Errorf("experiment: trial %d: fault did not fire at round %d: %+v", t, faultRound, res.Faults)
		}
		if at := res.Faults[0].RecoveredAt; at > 0 {
			recovered++
			delays = append(delays, float64(at-faultRound))
		}
	}
	out := recoveryOutcome{rate: float64(recovered) / float64(len(results))}
	if len(delays) > 0 {
		sort.Float64s(delays)
		out.median = delays[len(delays)/2]
		out.p90 = delays[(len(delays)*9)/10]
	}
	return out, nil
}
