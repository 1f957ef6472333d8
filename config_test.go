package noisypull_test

import (
	"context"
	"reflect"
	"testing"

	"noisypull"
	"noisypull/internal/sim"
)

// TestOneConfigOneRun: a configuration is one run whichever entry point
// takes it — the facade and the engine, synchronous and asynchronous —
// and an SSF run with a zero window stops by SSF's own bounds there.
func TestOneConfigOneRun(t *testing.T) {
	nm, err := noisypull.UniformNoise(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noisypull.Config{
		N: 200, H: 32, Sources1: 1,
		Noise:        nm,
		Protocol:     noisypull.NewSelfStabilizing(),
		Seed:         3,
		Corruption:   noisypull.CorruptWrongConsensus,
		TrackHistory: true,
	}
	run := func(name string, r sim.Trial, err error) *noisypull.Result {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer r.Close()
		res, err := r.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	engine, err := sim.New(cfg)
	want := run("sim.New", engine, err)
	facade, err := noisypull.NewRunner(cfg)
	if got := run("noisypull.NewRunner", facade, err); !reflect.DeepEqual(got, want) {
		t.Errorf("noisypull.NewRunner: %d rounds, converged %v; sim.New: %d rounds, converged %v", got.Rounds, got.Converged, want.Rounds, want.Converged)
	}

	window, maxRounds, err := noisypull.NewSelfStabilizing().RunBounds(engine.Env())
	if err != nil {
		t.Fatal(err)
	}
	bounded := cfg
	bounded.StabilityWindow, bounded.MaxRounds = window, maxRounds
	explicit, err := sim.New(bounded)
	if got := run("explicit bounds", explicit, err); !reflect.DeepEqual(got, want) {
		t.Errorf("zero window: %d rounds; SSF's window %d and cap %d: %d rounds", want.Rounds, window, maxRounds, got.Rounds)
	}
	if !want.Converged || want.Rounds-want.FirstAllCorrect+1 != window {
		t.Errorf("run stopped at round %d (converged %v, all correct from %d), want a %d-round window", want.Rounds, want.Converged, want.FirstAllCorrect, window)
	}

	async, err := sim.NewAsync(cfg)
	wantAsync := run("sim.NewAsync", async, err)
	got, err := noisypull.RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantAsync) {
		t.Errorf("noisypull.RunAsync: %d rounds; sim.NewAsync: %d rounds", got.Rounds, wantAsync.Rounds)
	}
	if !wantAsync.Converged || wantAsync.Rounds-wantAsync.FirstAllCorrect+1 != window {
		t.Errorf("async run stopped at round %d (converged %v, all correct from %d), want a %d-round window", wantAsync.Rounds, wantAsync.Converged, wantAsync.FirstAllCorrect, window)
	}
}

// TestNewRunnerResolvesOnce: NewRunner resolves its configuration once, so
// a channel that needs the Theorem 8 reduction costs SSF, which sizes its
// own runs, no more allocations over a uniform channel than it costs
// TrustBit.
func TestNewRunnerResolvesOnce(t *testing.T) {
	uniform, err := noisypull.UniformNoise(4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := noisypull.NoiseFromRows([][]float64{
		{0.88, 0.04, 0.05, 0.03},
		{0.03, 0.87, 0.05, 0.05},
		{0.05, 0.03, 0.88, 0.04},
		{0.04, 0.05, 0.03, 0.88},
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := func(p noisypull.Protocol) float64 {
		allocs := func(nm *noisypull.NoiseMatrix) float64 {
			cfg := noisypull.Config{N: 200, H: 16, Sources1: 1, Noise: nm, Protocol: p, Workers: 1}
			return testing.AllocsPerRun(10, func() {
				r, err := noisypull.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.Close()
			})
		}
		return allocs(skewed) - allocs(uniform)
	}
	ssf, trustBit := extra(noisypull.NewSelfStabilizing()), extra(noisypull.TrustBitBaseline)
	if ssf > trustBit {
		t.Errorf("the skewed channel costs SSF %v allocations more than the uniform one, TrustBit %v", ssf, trustBit)
	}
}
