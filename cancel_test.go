package noisypull_test

// Public-facade cancellation tests: RunContext/RunBatchContext surface the
// engine's cooperative cancellation, and the exported Runner supports the
// lease-reset-rerun cycle the simd scheduler is built on.

import (
	"context"
	"errors"
	"testing"
	"time"

	"noisypull"
)

// endlessPublicConfig never converges: the voter baseline under persistent
// noise essentially cannot hold an all-correct round, so the run lasts
// MaxRounds unless cancelled.
func endlessPublicConfig(t *testing.T) noisypull.Config {
	t.Helper()
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return noisypull.Config{
		N: 200, H: 2, Sources1: 1, Sources0: 0,
		Noise:     nm,
		Protocol:  noisypull.VoterBaseline,
		MaxRounds: 1 << 20,
		Workers:   1,
	}
}

func TestPublicRunContextCancel(t *testing.T) {
	cfg := endlessPublicConfig(t)
	// Uncancelled, the run lasts 2^20 rounds: far past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := noisypull.RunContext(ctx, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want context.DeadlineExceeded", err)
	}
}

func TestPublicRunBatchContextCancel(t *testing.T) {
	cfg := endlessPublicConfig(t)
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := noisypull.RunBatchContext(ctx, cfg, []uint64{1, 2, 3, 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatchContext error = %v, want context.Canceled", err)
	}
}

// TestRunnerLeaseCycle exercises the exported Runner exactly the way the
// simd scheduler leases it: run, cancel, swap the round hook, Reset, rerun —
// and the reran result must be bit-identical to a one-shot Run.
func TestRunnerLeaseCycle(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noisypull.Config{
		N: 150, H: 16, Sources1: 2, Sources0: 0,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
		Seed:     42,
		Workers:  1,
	}
	want, err := noisypull.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := noisypull.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()

	// First lease: cancel mid-run under another seed with a hook attached.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hookRounds := 0
	runner.SetOnRound(func(round, correct int) {
		hookRounds = round
		if round == 3 {
			cancel()
		}
	})
	runner.Reset(7)
	if _, err := runner.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("leased run error = %v, want context.Canceled", err)
	}
	if hookRounds != 3 {
		t.Fatalf("hook saw %d rounds, want 3", hookRounds)
	}

	// Second lease: rewind to the reference seed, detach the hook, rerun.
	runner.SetOnRound(nil)
	runner.Reset(cfg.Seed)
	got, err := runner.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Converged != want.Converged ||
		got.FinalCorrect != want.FinalCorrect || got.FirstAllCorrect != want.FirstAllCorrect {
		t.Fatalf("leased rerun %+v != one-shot run %+v", got, want)
	}
}
