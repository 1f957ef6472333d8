package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

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

// trialRunner is the part of sim.Runner and sim.AsyncRunner the trial loop
// drives.
type trialRunner interface {
	Reset(seed uint64)
	RunContext(ctx context.Context) (*sim.Result, error)
}

// newSyncRunner and newAsyncRunner are the constructors runTrialsOn takes:
// the synchronous engine and the asynchronous scheduler.
func newSyncRunner(cfg sim.Config) (trialRunner, error)  { return sim.New(cfg) }
func newAsyncRunner(cfg sim.Config) (trialRunner, error) { return sim.NewAsync(cfg) }

// runTrials executes trials of the configuration produced by makeCfg (which
// receives the trial seed) on the synchronous engine and aggregates the
// outcomes; runTrialsOn does the work.
func runTrials(opts Options, gridPoint, trials int, makeCfg func(seed uint64) sim.Config) (*trialBatch, error) {
	return runTrialsOn(newSyncRunner, opts, gridPoint, trials, makeCfg)
}

// runTrialsOn executes trials on runners built by newRunner. Trials execute
// concurrently on opts.Parallel goroutines with single-worker simulations,
// keeping total CPU use at the configured level while staying fully
// deterministic (each trial's behaviour depends only on its seed).
//
// Each worker goroutine keeps one runner and rewinds it with Reset between
// trials whenever consecutive configurations are identical up to the seed
// (the common case: grid-point closures reuse their noise matrix, protocol,
// and topology), so the experiment grids do not pay population construction
// and channel building per trial. Configurations that genuinely differ (for
// example per-trial random graphs) fall back to a fresh runner.
func runTrialsOn(newRunner func(sim.Config) (trialRunner, error), opts Options, gridPoint, trials int, makeCfg func(seed uint64) sim.Config) (*trialBatch, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: trials = %d", trials)
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > trials {
		parallel = trials
	}

	ctx := opts.ctx()
	results := make([]*sim.Result, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runner trialRunner
			var runnerCfg sim.Config
			for t := range next {
				cfg := makeCfg(trialSeed(opts.Seed, gridPoint, t))
				cfg.Workers = 1
				if runner != nil && runnerCfg.ResetCompatible(&cfg) {
					runner.Reset(cfg.Seed)
				} else {
					var err error
					if runner, err = newRunner(cfg); err != nil {
						errs[t] = err
						runner = nil
						continue
					}
					runnerCfg = cfg
				}
				results[t], errs[t] = runner.RunContext(ctx)
			}
		}()
	}
	done := ctx.Done()
feed:
	for t := 0; t < trials; t++ {
		select {
		case next <- t:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	batch := &trialBatch{Trials: trials}
	for t := 0; t < trials; t++ {
		if errs[t] != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", t, errs[t])
		}
		res := results[t]
		batch.Durations = append(batch.Durations, float64(res.Rounds))
		if res.Converged {
			batch.Successes++
			batch.Recoveries = append(batch.Recoveries, float64(res.FirstAllCorrect))
		}
	}
	return batch, nil
}

// runTrialsRaw executes trials of one fixed configuration (seeds derived
// from opts as in runTrials) and returns the per-trial Results unaggregated.
// Experiments that need fields trialBatch drops — fault telemetry, opinion
// histories — use this instead of runTrials.
func runTrialsRaw(opts Options, gridPoint, trials int, cfg sim.Config) ([]*sim.Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: trials = %d", trials)
	}
	seeds := make([]uint64, trials)
	for t := range seeds {
		seeds[t] = trialSeed(opts.Seed, gridPoint, t)
	}
	results, err := sim.RunBatchContext(opts.ctx(), cfg, seeds, opts.Parallel)
	if err != nil {
		return nil, fmt.Errorf("experiment: grid point %d: %w", gridPoint, err)
	}
	return results, nil
}

// lnF returns the natural log of n as a float64.
func lnF(n int) float64 {
	return math.Log(float64(n))
}
