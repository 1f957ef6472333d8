// Package sim_test holds the cross-backend tests of the counts backend.
// They live in an external test package because they instantiate the real
// baseline protocols from internal/protocol, which itself imports sim.
package sim_test

import (
	"context"
	"math"
	"testing"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

func uniformNoise(t testing.TB, d int, delta float64) *noise.Matrix {
	t.Helper()
	m, err := noise.Uniform(d, delta)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oneRoundP1 returns the exact probability that a non-source holds opinion 1
// after round one, for the binary baselines: the initial display counts are
// deterministic (sources plus the protocol's non-source initialization), so
// the per-observation distribution q — and with it the update law — is
// analytic.
func oneRoundP1(proto sim.Protocol, n, h, s1 int, delta float64) float64 {
	disp1 := s1 // sources display 1
	if _, ok := proto.(protocol.MajorityRule); ok {
		disp1 += n/2 - s1/2 // parity-initialized non-sources, ids [s1, n)
	}
	q1 := (float64(disp1)*(1-delta) + float64(n-disp1)*delta) / float64(n)
	switch proto.(type) {
	case protocol.Voter:
		return q1
	case protocol.MajorityRule:
		return stats.MajorityWin(h, q1)
	default:
		panic("oneRoundP1: unsupported protocol")
	}
}

// TestCountsMatchesExactChiSquare is the cross-backend agreement test: for
// voter and h-majority, the number of correct non-sources after one round is
// Binomial(n−s, p1) with analytic p1, so both the exact and the counts
// backend must fit that distribution. A chi-square fit against the same
// analytic law for both backends is a stronger statement than agreement
// between their empirical histograms.
func TestCountsMatchesExactChiSquare(t *testing.T) {
	const (
		n      = 64
		h      = 5
		s1     = 4
		delta  = 0.2
		trials = 400
		alpha  = 0.001
	)
	for _, pr := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"voter", protocol.Voter{}},
		{"majority", protocol.MajorityRule{}},
	} {
		p1 := oneRoundP1(pr.proto, n, h, s1, delta)
		ns := n - s1
		expected := make([]float64, ns+1)
		for k := 0; k <= ns; k++ {
			expected[k] = trials * stats.BinomPMF(ns, p1, k)
		}
		for _, backend := range []sim.Backend{sim.BackendExact, sim.BackendCounts} {
			cfg := sim.Config{
				N:         n,
				H:         h,
				Sources1:  s1,
				Noise:     uniformNoise(t, 2, delta),
				Protocol:  pr.proto,
				Seed:      1,
				Backend:   backend,
				MaxRounds: 1,
				Workers:   1,
			}
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			observed := make([]int, ns+1)
			for trial := 0; trial < trials; trial++ {
				r.Reset(uint64(1000 + trial))
				res, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				k := res.FinalCorrect - s1 // non-source correct count
				if k < 0 || k > ns {
					t.Fatalf("%s/%v: correct count %d outside [0, %d]", pr.name, backend, k, ns)
				}
				observed[k]++
			}
			r.Close()
			stat, df := stats.ChiSquare(observed, expected, 5)
			if crit := stats.ChiSquareCritical(df, alpha); stat > crit {
				t.Errorf("%s/%v: chi-square %.2f exceeds critical %.2f (df=%d) against Binomial(%d, %.4f)",
					pr.name, backend, stat, crit, df, ns, p1)
			}
		}
	}
}

// TestCountsTrustBitAgreesWithExact compares the counts and exact backends
// on the trust-bit cascade over several rounds with a z-test on the mean
// final correct count — the cascade's multi-round law has no closed form,
// so agreement is tested empirically.
func TestCountsTrustBitAgreesWithExact(t *testing.T) {
	const (
		n      = 120
		h      = 4
		s1     = 6
		delta  = 0.15
		trials = 250
	)
	means := make(map[sim.Backend]stats.Summary)
	for _, backend := range []sim.Backend{sim.BackendExact, sim.BackendCounts} {
		cfg := sim.Config{
			N:         n,
			H:         h,
			Sources1:  s1,
			Noise:     uniformNoise(t, 4, delta),
			Protocol:  protocol.TrustBit{},
			Seed:      1,
			Backend:   backend,
			MaxRounds: 6,
			Workers:   1,
		}
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		finals := make([]float64, trials)
		for trial := range finals {
			r.Reset(uint64(5000 + trial))
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			finals[trial] = float64(res.FinalCorrect)
		}
		r.Close()
		means[backend] = stats.Summarize(finals)
	}
	a, b := means[sim.BackendExact], means[sim.BackendCounts]
	se := math.Sqrt(a.Variance/float64(a.N) + b.Variance/float64(b.N))
	if z := math.Abs(a.Mean-b.Mean) / se; z > 4 {
		t.Errorf("trustbit: exact mean %.2f vs counts mean %.2f, z = %.2f > 4", a.Mean, b.Mean, z)
	}
}

// TestCountsDeterminism: the counts backend must be bit-deterministic in the
// seed — identical trajectories from a fresh runner and from Reset.
func TestCountsDeterminism(t *testing.T) {
	cfg := sim.Config{
		N:            100000,
		H:            6,
		Sources1:     100,
		Noise:        uniformNoise(t, 2, 0.1),
		Protocol:     protocol.MajorityRule{},
		Seed:         99,
		Backend:      sim.BackendCounts,
		MaxRounds:    50,
		TrackHistory: true,
	}
	run := func() *sim.Result {
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.FinalCorrect != r2.FinalCorrect || r1.Rounds != r2.Rounds {
		t.Fatalf("fresh runs diverge: %+v vs %+v", r1, r2)
	}
	for i := range r1.History {
		if r1.History[i] != r2.History[i] {
			t.Fatalf("round %d: history %d vs %d", i+1, r1.History[i], r2.History[i])
		}
	}

	// Reset must reproduce the same trajectory as a fresh runner.
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.Reset(cfg.Seed)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCorrect != r1.FinalCorrect || res.Rounds != r1.Rounds {
		t.Fatalf("reset run diverges: %+v vs %+v", res, r1)
	}
	for i := range r1.History {
		if res.History[i] != r1.History[i] {
			t.Fatalf("reset round %d: history %d vs %d", i+1, res.History[i], r1.History[i])
		}
	}
}

// TestCountsInitialClassCounts checks InitialCounts plumbed through the
// runner for every corruption mode, via the ClassCounts accessor.
func TestCountsInitialClassCounts(t *testing.T) {
	const n, s1, s0 = 1001, 8, 3
	base := sim.Config{
		N:        n,
		H:        3,
		Sources1: s1,
		Sources0: s0,
		Noise:    uniformNoise(t, 2, 0.1),
		Protocol: protocol.MajorityRule{},
		Seed:     7,
		Backend:  sim.BackendCounts,
	}
	ns := n - s1 - s0

	cases := []struct {
		mode     sim.CorruptionMode
		wantOnes int // non-source opinion-1 count; -1 = randomized
	}{
		{sim.CorruptNone, n/2 - (s1+s0)/2},
		{sim.CorruptWrongConsensus, ns}, // correct is 0 here? no: s1 > s0, correct = 1, wrong = 0
		{sim.CorruptRandom, -1},
	}
	for _, c := range cases {
		cfg := base
		cfg.Corruption = c.mode
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := r.ClassCounts()
		r.Close()
		if len(counts) != 4 {
			t.Fatalf("mode %v: %d classes, want 4", c.mode, len(counts))
		}
		total := 0
		for _, v := range counts {
			total += v
		}
		if total != n {
			t.Fatalf("mode %v: classes sum to %d, want %d", c.mode, total, n)
		}
		if counts[3] != s1 || counts[2] != s0 {
			t.Fatalf("mode %v: source classes (%d, %d), want (%d, %d)", c.mode, counts[3], counts[2], s1, s0)
		}
		switch c.mode {
		case sim.CorruptNone:
			if counts[1] != c.wantOnes {
				t.Errorf("mode %v: %d non-sources on opinion 1, want %d", c.mode, counts[1], c.wantOnes)
			}
		case sim.CorruptWrongConsensus:
			// correct = 1 (s1 > s0), so every non-source lands on opinion 0.
			if counts[0] != ns || counts[1] != 0 {
				t.Errorf("wrong-consensus: non-source classes (%d, %d), want (%d, 0)", counts[0], counts[1], ns)
			}
		case sim.CorruptRandom:
			mean, sigma := float64(ns)/2, math.Sqrt(float64(ns))/2
			if math.Abs(float64(counts[1])-mean) > 6*sigma {
				t.Errorf("random: %d non-sources on opinion 1, want %v +- %v", counts[1], mean, 6*sigma)
			}
		}
	}

	// Per-agent backends report no class counts. MajorityRule on the exact
	// backend runs its kernel, whose agents AgentState reads.
	cfg := base
	cfg.Backend = sim.BackendExact
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.ClassCounts(); got != nil {
		t.Errorf("exact backend ClassCounts = %v, want nil", got)
	}
	if _, _, err := r.AgentState(0); err != nil {
		t.Errorf("kernel AgentState: %v", err)
	}
}

// TestCountsValidation: requesting the counts backend with a non-countable
// protocol or a topology must fail fast at validation.
func TestCountsValidation(t *testing.T) {
	cfg := sim.Config{
		N:        100,
		H:        3,
		Sources1: 2,
		Noise:    uniformNoise(t, 2, 0.1),
		Protocol: protocol.NewSF(),
		Seed:     1,
		Backend:  sim.BackendCounts,
	}
	if _, err := sim.New(cfg); err == nil {
		t.Error("counts backend accepted a non-countable protocol")
	}
	if _, err := sim.NewAsync(sim.Config{
		N:        100,
		H:        3,
		Sources1: 2,
		Noise:    uniformNoise(t, 2, 0.1),
		Protocol: protocol.Voter{},
		Seed:     1,
		Backend:  sim.BackendCounts,
	}); err == nil {
		t.Error("async runner accepted the counts backend")
	}
}

// TestCountsRunBatch exercises the batch driver end to end on the counts
// backend, including cancellation plumbing via the per-trial Reset path.
func TestCountsRunBatch(t *testing.T) {
	cfg := sim.Config{
		N:         1000000,
		H:         8,
		Sources1:  1000,
		Noise:     uniformNoise(t, 2, 0.1),
		Protocol:  protocol.MajorityRule{},
		Backend:   sim.BackendCounts,
		MaxRounds: 100,
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	results, err := sim.RunBatchContext(context.Background(), cfg, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(seeds) {
		t.Fatalf("%d results, want %d", len(results), len(seeds))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("trial %d: nil result", i)
		}
		if res.FinalCorrect < cfg.Sources1 || res.FinalCorrect > cfg.N {
			t.Fatalf("trial %d: FinalCorrect %d out of range", i, res.FinalCorrect)
		}
	}
}
