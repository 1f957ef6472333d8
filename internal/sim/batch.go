package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
)

// RunBatch executes one independent trial per seed over a fleet of reused
// runners: parallel runners are constructed once (with Workers = 1 each, so
// total CPU use stays at the configured level) and rewound with Reset
// between trials, amortizing population construction, channel composition,
// and scratch allocation across the whole batch. cfg.Seed is ignored; trial
// t runs under seeds[t], and its result depends only on that seed, not on
// parallel or on which runner happened to execute it.
//
// parallel <= 0 means GOMAXPROCS. cfg.OnRound must be nil (trials run
// concurrently; use TrackHistory for per-trial trajectories).
func RunBatch(cfg Config, seeds []uint64, parallel int) ([]*Result, error) {
	return RunBatchContext(context.Background(), cfg, seeds, parallel)
}

// RunBatchContext is RunBatch with cooperative cancellation. Once ctx is
// cancelled no further seeds are launched, every in-flight trial stops
// within one round (via RunContext), and the call returns ctx.Err(); partial
// results are discarded. An uncancelled context yields results element-wise
// identical to RunBatch.
func RunBatchContext(ctx context.Context, cfg Config, seeds []uint64, parallel int) ([]*Result, error) {
	if cfg.OnRound != nil {
		return nil, errors.New("sim: RunBatch does not support OnRound (trials run concurrently); use TrackHistory")
	}
	if cfg.OnFault != nil {
		return nil, errors.New("sim: RunBatch does not support OnFault (trials run concurrently); use Result.Faults")
	}
	if cfg.OnCheckpoint != nil {
		return nil, errors.New("sim: RunBatch does not support OnCheckpoint (trials run concurrently); checkpoint via a dedicated Runner")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(seeds) {
		parallel = len(seeds)
	}
	cfg.Workers = 1

	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runner *Runner
			for t := range next {
				if runner == nil {
					c := cfg
					c.Seed = seeds[t]
					var err error
					if runner, err = New(c); err != nil {
						errs[t] = err
						continue
					}
				} else {
					runner.Reset(seeds[t])
				}
				results[t], errs[t] = runner.RunContext(ctx)
			}
		}()
	}
	done := ctx.Done()
feed:
	for t := range seeds {
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
	for t, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d (seed %d): %w", t, seeds[t], err)
		}
	}
	return results, nil
}

// ResetCompatible reports whether a Runner built from c can be reused via
// Reset to execute o: the configurations must be identical up to Seed.
// Pointer-typed fields (Noise, Artificial, Topology, Faults) compare by
// identity, and callbacks must be absent (funcs are not comparable). Harness
// code uses this to decide between rewinding a pooled runner and
// constructing a fresh one.
func (c *Config) ResetCompatible(o *Config) bool {
	return c.N == o.N && c.H == o.H &&
		c.Sources1 == o.Sources1 && c.Sources0 == o.Sources0 &&
		c.Noise == o.Noise && c.Artificial == o.Artificial &&
		c.Topology == o.Topology &&
		protocolEqual(c.Protocol, o.Protocol) &&
		c.Backend == o.Backend &&
		c.MaxRounds == o.MaxRounds &&
		c.StabilityWindow == o.StabilityWindow &&
		c.Corruption == o.Corruption &&
		c.Faults == o.Faults &&
		c.Workers == o.Workers &&
		c.TrackHistory == o.TrackHistory &&
		c.OnRound == nil && o.OnRound == nil &&
		c.OnFault == nil && o.OnFault == nil &&
		c.OnCheckpoint == nil && o.OnCheckpoint == nil &&
		c.CheckpointEvery == o.CheckpointEvery
}

// protocolEqual compares two Protocol values without panicking on dynamic
// types that are not comparable (e.g. implementations containing slices).
func protocolEqual(a, b Protocol) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb || !ta.Comparable() {
		return false
	}
	return a == b
}
