package sim

import (
	"math"
	"strings"
	"testing"

	"noisypull/internal/faults"
)

func TestNewAsyncValidates(t *testing.T) {
	cfg := baseConfig(t)
	cfg.N = 0
	if _, err := NewAsync(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Faults fire at round barriers, which asynchronous activation does not
	// have.
	cfg = baseConfig(t)
	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: faults.KindChurn, Round: 2, Fraction: 0.5}}}
	if _, err := NewAsync(cfg); err == nil || !strings.Contains(err.Error(), "asynchronous scheduler does not support fault schedules") {
		t.Fatalf("fault schedule: err = %v", err)
	}
}

func TestAsyncObservationSumsAndNoiseRate(t *testing.T) {
	const delta = 0.2
	cfg := Config{
		N:         150,
		H:         40,
		Sources1:  2,
		Sources0:  1,
		Noise:     uniform2(t, delta),
		Protocol:  constProbe(0, 2),
		Seed:      5,
		MaxRounds: 20,
	}
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var ones, total float64
	for _, seen := range r.eng.pop.(*ProbePop).Seen {
		for _, counts := range seen {
			if counts[0]+counts[1] != cfg.H {
				t.Fatalf("counts sum %d", counts[0]+counts[1])
			}
			ones += float64(counts[1])
			total += float64(cfg.H)
		}
	}
	if got := ones / total; math.Abs(got-delta) > 0.01 {
		t.Fatalf("async flip rate %v, want %v", got, delta)
	}
}

func TestAsyncActivationCountsAreFair(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MaxRounds = 50
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Each agent activates Binomial(50·n, 1/n) times: mean 50, sd ~7.
	for i, seen := range r.eng.pop.(*ProbePop).Seen {
		got := len(seen)
		if got < 15 || got > 105 {
			t.Fatalf("agent %d activated %d times, want ~50", i, got)
		}
	}
}

func TestAsyncConvergenceBookkeeping(t *testing.T) {
	cfg := Config{
		N:               80,
		H:               16,
		Sources1:        4,
		Sources0:        1,
		Noise:           uniform2(t, 0.05),
		Protocol:        copySource(),
		Seed:            9,
		StabilityWindow: 3,
		MaxRounds:       500,
		TrackHistory:    true,
	}
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async copy protocol did not converge: %+v", res)
	}
	if res.FirstAllCorrect == 0 || res.FinalCorrect != cfg.N {
		t.Fatalf("bookkeeping: %+v", res)
	}
	if len(res.History) != res.Rounds {
		t.Fatalf("history length %d vs %d rounds", len(res.History), res.Rounds)
	}
}

func TestAsyncDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		cfg := Config{
			N:            60,
			H:            8,
			Sources1:     2,
			Sources0:     1,
			Noise:        uniform2(t, 0.1),
			Protocol:     copySource(),
			Seed:         77,
			MaxRounds:    30,
			TrackHistory: true,
		}
		r, err := NewAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.FinalCorrect != b.FinalCorrect {
		t.Fatalf("async runs with equal seeds differ: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("async history diverges at %d", i)
		}
	}
}

func TestAsyncEnvAndAgents(t *testing.T) {
	cfg := baseConfig(t)
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Env().N != cfg.N || len(r.eng.pop.(*ProbePop).Display) != cfg.N {
		t.Fatal("async accessors wrong")
	}
}

func TestAsyncMaxRoundsCap(t *testing.T) {
	cfg := baseConfig(t) // constProbe: opinion 0, correct 1 -> never converges
	cfg.MaxRounds = 7
	r, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 || res.Converged {
		t.Fatalf("cap ignored: %+v", res)
	}
}
