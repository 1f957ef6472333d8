package experiment

import (
	"fmt"
	"math"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// trialSeed derives a deterministic seed for trial t of grid point g under
// base seed.
func trialSeed(base uint64, g, t int) uint64 {
	v1, _ := rng.SplitMix64(base ^ (uint64(g) * 0x9e3779b97f4a7c15))
	v2, _ := rng.SplitMix64(uint64(t) ^ 0xda942042e4dd58b5)
	return v1 ^ v2
}

// trialBatch holds the aggregated outcome of repeated simulations at one
// grid point.
type trialBatch struct {
	Trials    int
	Successes int
	// Durations are the executed round counts of all trials.
	Durations []float64
	// Recoveries are FirstAllCorrect rounds of the successful trials.
	Recoveries []float64
}

// SuccessRate returns the fraction of converged trials.
func (b *trialBatch) SuccessRate() float64 {
	if b.Trials == 0 {
		return 0
	}
	return float64(b.Successes) / float64(b.Trials)
}

// MedianDuration returns the median executed rounds.
func (b *trialBatch) MedianDuration() float64 {
	return stats.Summarize(b.Durations).Median
}

// MedianRecovery returns the median FirstAllCorrect round among successful
// trials, or 0 if none succeeded.
func (b *trialBatch) MedianRecovery() float64 {
	if len(b.Recoveries) == 0 {
		return 0
	}
	return stats.Summarize(b.Recoveries).Median
}

// Wilson95 returns the 95% Wilson interval on the success rate.
func (b *trialBatch) Wilson95() stats.Proportion {
	return stats.Wilson(b.Successes, b.Trials, 1.96)
}

// runTrials executes trials of cfg (its Seed is ignored) on the synchronous
// engine and aggregates the outcomes.
func runTrials(opts Options, gridPoint, trials int, cfg sim.Config) (*trialBatch, error) {
	results, err := runTrialsRaw(opts, gridPoint, trials, cfg)
	if err != nil {
		return nil, err
	}
	return aggregate(results), nil
}

// runTrialsRaw executes trials of cfg and returns the per-trial Results
// unaggregated. Trial t runs under trialSeed(opts.Seed, gridPoint, t) on
// sim.RunBatchContext, so trials execute concurrently on opts.Parallel
// single-worker runners that are rewound between seeds, and each trial's
// result depends only on its seed. Experiments that need fields trialBatch
// drops — fault telemetry, opinion histories — use this instead of
// runTrials.
func runTrialsRaw(opts Options, gridPoint, trials int, cfg sim.Config) ([]*sim.Result, error) {
	seeds, err := trialSeeds(opts, gridPoint, trials)
	if err != nil {
		return nil, err
	}
	results, err := sim.RunBatchContext(opts.ctx(), cfg, seeds, opts.Parallel)
	if err != nil {
		return nil, fmt.Errorf("experiment: grid point %d: %w", gridPoint, err)
	}
	return results, nil
}

// trialSeeds returns the seeds of a grid point's trials.
func trialSeeds(opts Options, gridPoint, trials int) ([]uint64, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: trials = %d", trials)
	}
	seeds := make([]uint64, trials)
	for t := range seeds {
		seeds[t] = trialSeed(opts.Seed, gridPoint, t)
	}
	return seeds, nil
}

// aggregate folds per-trial results into a trialBatch.
func aggregate(results []*sim.Result) *trialBatch {
	batch := &trialBatch{Trials: len(results)}
	for _, res := range results {
		batch.Durations = append(batch.Durations, float64(res.Rounds))
		if res.Converged {
			batch.Successes++
			batch.Recoveries = append(batch.Recoveries, float64(res.FirstAllCorrect))
		}
	}
	return batch
}

// lnF returns the natural log of n as a float64.
func lnF(n int) float64 {
	return math.Log(float64(n))
}
