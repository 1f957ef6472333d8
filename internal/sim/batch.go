package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// RunBatchContext executes one independent trial per seed over reused
// runners: RunSeeds gives each of parallel goroutines one runner (with
// Workers = 1, so total CPU use stays at the configured level), built for
// its first seed and rewound with Reset for the next, amortizing
// population construction, channel composition, and scratch allocation
// across the whole batch. cfg.Seed is ignored; trial t runs under
// seeds[t], and its result depends only on that seed, not on parallel or
// on which runner happened to execute it.
//
// parallel <= 0 means GOMAXPROCS. Use TrackHistory for per-trial
// trajectories and Result.Faults for fault telemetry. Once ctx is
// cancelled no further seeds are launched, every in-flight trial stops
// within one round (via RunContext), and the call returns ctx.Err();
// partial results are discarded. A panic in protocol or engine code fails
// its trial with an error that wraps ErrPanic.
func RunBatchContext(ctx context.Context, cfg Config, seeds []uint64, parallel int) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Workers = 1
	return RunSeeds(ctx, seeds, parallel, cfg.newSeeded)
}

// newSeeded builds a Runner for c under seed. RunBatchContext passes it as a
// method value, which binds a copy of c in one allocation; a closure over
// cfg would move cfg to the heap as a second one.
func (c Config) newSeeded(seed uint64) (*Runner, error) {
	c.Seed = seed
	return New(c)
}

// RunSeeds runs one trial per seed on parallel goroutines and returns the
// results in seed order. Each goroutine holds one runner in an Executor
// under a constant key, so build must return runners of one configuration
// up to the seed: a goroutine calls it for its first seed (and after an
// error drops the runner) and rewinds the runner with Reset for the rest.
// build is called concurrently. parallel <= 0 means GOMAXPROCS. Once ctx is
// cancelled no further seeds are launched and the call returns ctx.Err().
func RunSeeds[R Trial](ctx context.Context, seeds []uint64, parallel int, build func(seed uint64) (R, error)) ([]*Result, error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(seeds) {
		parallel = len(seeds)
	}

	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ex Executor[R, struct{}]
			defer ex.Close()
			for t := range next {
				results[t], errs[t] = ex.Run(ctx, struct{}{}, seeds[t], build, nil)
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

// ErrPanic marks a trial that failed because protocol or engine code
// panicked; Executor.Run wraps it with the panic value.
var ErrPanic = errors.New("panic in protocol/engine")

// Trial is a runner an Executor can reuse across seeds: Reset rewinds it,
// bit-identically to a fresh build, under a new seed. *Runner (which the
// public noisypull.Runner aliases) and *AsyncRunner implement it.
type Trial interface {
	Reset(seed uint64)
	RunContext(ctx context.Context) (*Result, error)
	Close()
}

// Executor runs seeds one after another on one cached runner. The runner is
// held under a key the caller gives; equal keys promise configurations that
// differ only in the seed, so a repeated key rewinds the runner with Reset
// and any other key closes it and builds a new one. The zero value is ready
// to use. An Executor is not safe for concurrent use.
type Executor[R Trial, K comparable] struct {
	runner R
	key    K
	held   bool
}

// Run executes one trial under seed. If the cached runner's key equals key
// it is Reset to seed; otherwise it is closed and build makes a new one.
// prepare, if non-nil, runs after Reset or build and before the run (to
// restore a checkpoint or set hooks).
//
// A panic in build, prepare or the run is returned as an error wrapping
// ErrPanic. It drops the runner, whose state is then arbitrary, as does any
// other error unless ctx is done: a cancelled runner is kept, because Reset
// rewinds it bit-identically. Only panics on the calling goroutine are
// recovered; one in an engine pool worker (Workers > 1) ends the process.
func (e *Executor[R, K]) Run(ctx context.Context, key K, seed uint64, build func(seed uint64) (R, error), prepare func(R) error) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.Close()
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, p)
		}
	}()
	if e.held && e.key == key {
		e.runner.Reset(seed)
	} else {
		e.Close()
		var r R
		if r, err = build(seed); err != nil {
			return nil, err
		}
		e.runner, e.key, e.held = r, key, true
	}
	if prepare != nil {
		err = prepare(e.runner)
	}
	if err == nil {
		res, err = e.runner.RunContext(ctx)
	}
	if err != nil && ctx.Err() == nil {
		e.Close()
	}
	return res, err
}

// Close closes the cached runner, if any. It is idempotent.
func (e *Executor[R, K]) Close() {
	if e.held {
		e.runner.Close()
	}
	var zero R
	e.runner, e.held = zero, false
}
