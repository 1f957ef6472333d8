package sim

// Cancellation-semantics tests for the context plumbing: a cancelled
// RunContext stops within one round, leaves the runner reusable (Reset +
// rerun is bit-identical to a fresh run), and RunBatchContext stops
// launching new seeds after cancel.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// endlessConfig is a run that cannot converge (sources disagree with what
// copySource spreads), so it executes MaxRounds rounds unless cancelled.
func endlessConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		N:         120,
		H:         4,
		Sources1:  1,
		Sources0:  4, // correct opinion 0, but observing any 1 locks agents at 1
		Noise:     uniform2(t, 0.2),
		Protocol:  copySource(),
		Seed:      99,
		MaxRounds: 1 << 20,
		Workers:   1,
	}
}

func TestRunContextCancelStopsWithinOneRound(t *testing.T) {
	cfg := endlessConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 5
	rounds := 0
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetOnRound(func(round, correct int) {
		rounds = round
		if round == stopAt {
			cancel()
		}
	})
	res, err := r.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("RunContext returned a result alongside cancellation: %+v", res)
	}
	if rounds != stopAt {
		t.Fatalf("engine executed %d rounds after cancellation at round %d", rounds-stopAt, stopAt)
	}
}

func TestRunContextPreCancelledRunsNoRounds(t *testing.T) {
	cfg := endlessConfig(t)
	called := false
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetOnRound(func(round, correct int) { called = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("a round ran under an already-cancelled context")
	}
}

// TestCancelledRunnerReusable pins the reuse guarantee: after a cancelled
// run, Reset + rerun must be bit-identical to a fresh runner's run.
func TestCancelledRunnerReusable(t *testing.T) {
	cfg := Config{
		N:               150,
		H:               12,
		Sources1:        4,
		Sources0:        1,
		Noise:           uniform2(t, 0.15),
		Protocol:        copySource(),
		Seed:            1234,
		StabilityWindow: 3,
		MaxRounds:       400,
		TrackHistory:    true,
		Workers:         2,
	}

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Run a second runner under a different seed, cancel it mid-flight, then
	// Reset to the reference seed and rerun to completion.
	c2 := cfg
	c2.Seed = 777
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reused, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	reused.SetOnRound(func(round, correct int) {
		if round == 2 {
			cancel()
		}
	})
	if _, err := reused.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	reused.SetOnRound(nil)
	reused.Reset(cfg.Seed)
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Fatalf("post-cancel Reset run differs from fresh run:\nfresh: %+v\nreused: %+v", want, got)
	}
}

func TestRunBatchContextPreCancelled(t *testing.T) {
	cfg := endlessConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunBatchContext(ctx, cfg, []uint64{1, 2, 3}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got results %v alongside cancellation", res)
	}
}

// TestRunBatchContextCancelStopsLaunching cancels a batch of effectively
// endless trials and requires the call to return promptly — possible only
// if no further seeds are launched and in-flight trials stop within a round.
func TestRunBatchContextCancelStopsLaunching(t *testing.T) {
	cfg := endlessConfig(t)
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunBatchContext(ctx, cfg, seeds, 2)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatchContext did not return after cancellation")
	}
}

func TestAsyncRunContextCancel(t *testing.T) {
	cfg := endlessConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetOnRound(func(round, correct int) {
		if round == 3 {
			cancel()
		}
	})
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("async error = %v, want context.Canceled", err)
	}
}
