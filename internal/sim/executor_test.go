package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// fakeTrial counts the Executor's calls on it; outcome decides each run.
type fakeTrial struct {
	seed           uint64
	resets, closes int
	outcome        *func(context.Context) error
}

func (f *fakeTrial) Reset(seed uint64) { f.seed, f.resets = seed, f.resets+1 }
func (f *fakeTrial) Close()            { f.closes++ }
func (f *fakeTrial) RunContext(ctx context.Context) (*Result, error) {
	if err := (*f.outcome)(ctx); err != nil {
		return nil, err
	}
	return &Result{Rounds: int(f.seed)}, nil
}

func TestExecutor(t *testing.T) {
	ok := func(context.Context) error { return nil }
	outcome := ok
	var built []*fakeTrial
	build := func(seed uint64) (*fakeTrial, error) {
		built = append(built, &fakeTrial{seed: seed, outcome: &outcome})
		return built[len(built)-1], nil
	}
	var ex Executor[*fakeTrial, string]
	run := func(ctx context.Context, key string, seed uint64) error {
		t.Helper()
		res, err := ex.Run(ctx, key, seed, build, nil)
		if err == nil && res.Rounds != int(seed) {
			t.Fatalf("seed %d ran as seed %d", seed, res.Rounds)
		}
		return err
	}
	bg := context.Background()
	expect := func(what string, builds int, last fakeTrial) {
		t.Helper()
		got := built[len(built)-1]
		if len(built) != builds || got.resets != last.resets || got.closes != last.closes {
			t.Fatalf("%s: %d builds, last runner %d resets %d closes; want %d, %+v",
				what, len(built), got.resets, got.closes, builds, last)
		}
	}

	run(bg, "a", 1)
	run(bg, "a", 2)
	expect("equal key", 1, fakeTrial{resets: 1})
	run(bg, "b", 3)
	if built[0].closes != 1 {
		t.Fatalf("new key left the old runner open (%d closes)", built[0].closes)
	}
	expect("new key", 2, fakeTrial{})

	outcome = func(context.Context) error { panic("boom") }
	if err := run(bg, "b", 4); !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic returned %v, want ErrPanic with the panic value", err)
	}
	expect("panic", 2, fakeTrial{resets: 1, closes: 1})
	outcome = ok
	run(bg, "b", 5)
	expect("after panic", 3, fakeTrial{})

	outcome = func(context.Context) error { return errors.New("run failed") }
	if err := run(bg, "b", 6); err == nil {
		t.Fatal("run error not returned")
	}
	expect("run error", 3, fakeTrial{resets: 1, closes: 1})

	outcome = func(ctx context.Context) error { return ctx.Err() }
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if err := run(cancelled, "b", 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	run(bg, "b", 8)
	expect("cancelled run", 4, fakeTrial{resets: 1})

	ex.Close()
	ex.Close()
	expect("Close twice", 4, fakeTrial{resets: 1, closes: 1})

	// RunSeeds recovers a panic on its own goroutines into the trial's error.
	outcome = func(context.Context) error { panic("boom") }
	if _, err := RunSeeds(bg, []uint64{1, 2}, 1, build); !errors.Is(err, ErrPanic) {
		t.Fatalf("RunSeeds returned %v, want ErrPanic", err)
	}
}
