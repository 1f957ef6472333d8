package sim

// Tests for the persistent-pool round engine: seeded determinism across
// worker counts, across runner reuse (New vs Reset), and batch execution.

import (
	"context"
	"runtime"
	"testing"

	"noisypull/internal/graph"
)

// resultsEqual compares every field of two results, including history.
func resultsEqual(a, b *Result) bool {
	if a.Rounds != b.Rounds || a.Converged != b.Converged ||
		a.FirstAllCorrect != b.FirstAllCorrect || a.CorrectOpinion != b.CorrectOpinion ||
		a.FinalCorrect != b.FinalCorrect || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			return false
		}
	}
	return true
}

// TestDeterminismRegression pins the reuse and parallelism invariants: the
// same seed must produce bit-identical results for Workers=1 vs
// Workers=GOMAXPROCS, and for a fresh New vs a Reset runner (including a
// runner previously run under a different seed).
func TestDeterminismRegression(t *testing.T) {
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
	}

	fresh := func(workers int, seed uint64) *Result {
		c := cfg
		c.Workers = workers
		c.Seed = seed
		r, err := New(c)
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

	serial := fresh(1, cfg.Seed)
	parallel := fresh(runtime.GOMAXPROCS(0), cfg.Seed)
	if !resultsEqual(serial, parallel) {
		t.Fatalf("Workers=1 and Workers=GOMAXPROCS disagree: %+v vs %+v", serial, parallel)
	}

	// Reset reuse: run under an unrelated seed first, then Reset to the
	// reference seed — the rewound runner must match a fresh one.
	c := cfg
	c.Workers = 1
	c.Seed = 999
	r, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.Reset(cfg.Seed)
	reused, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(serial, reused) {
		t.Fatalf("fresh New vs Reset runner disagree: %+v vs %+v", serial, reused)
	}

	// Reset must also commute with the worker pool.
	cp := cfg
	cp.Workers = runtime.GOMAXPROCS(0)
	rp, err := New(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if _, err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	rp.Reset(cfg.Seed)
	reusedPool, err := rp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(serial, reusedPool) {
		t.Fatalf("pooled Reset runner disagrees: %+v vs %+v", serial, reusedPool)
	}
}

// TestRunTwiceWithoutReset pins the single-use-per-Reset contract.
func TestRunTwiceWithoutReset(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MaxRounds = 2
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run without Reset did not error")
	}
	r.Reset(cfg.Seed)
	if _, err := r.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}

	a, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err == nil {
		t.Fatal("second async Run without Reset did not error")
	}
	a.Reset(cfg.Seed)
	if _, err := a.Run(); err != nil {
		t.Fatalf("async Run after Reset: %v", err)
	}
}

// TestFiniteProtocolCappedByMaxRounds covers MaxRounds < the protocol's own
// schedule: the run stops at the cap and does not count as converged, even
// if the population happens to be all-correct.
func TestFiniteProtocolCappedByMaxRounds(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = finiteWrap{Protocol: copySource(), rounds: 50}
	cfg.Noise = uniform2(t, 0.3) // plenty of 1-observations: all-correct fast
	cfg.MaxRounds = 9
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 9 {
		t.Fatalf("rounds = %d, want MaxRounds cap 9", res.Rounds)
	}
	if res.Converged {
		t.Fatal("run capped before the finite schedule must not report convergence")
	}
	if res.FinalCorrect != cfg.N {
		t.Fatalf("final correct = %d (copy protocol should be all-correct by round 9)", res.FinalCorrect)
	}
}

// TestRunBatchMatchesIndividualRuns: RunBatchContext must be element-wise
// identical to fresh per-seed runs, regardless of parallelism.
func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	cfg := Config{
		N:               80,
		H:               10,
		Sources1:        3,
		Sources0:        1,
		Noise:           uniform2(t, 0.2),
		Protocol:        copySource(),
		StabilityWindow: 2,
		MaxRounds:       300,
		TrackHistory:    true,
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	for _, parallel := range []int{1, 3} {
		batch, err := RunBatchContext(context.Background(), cfg, seeds, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(seeds) {
			t.Fatalf("got %d results for %d seeds", len(batch), len(seeds))
		}
		for i, seed := range seeds {
			c := cfg
			c.Seed = seed
			c.Workers = 1
			r, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(want, batch[i]) {
				t.Fatalf("parallel=%d seed %d: batch %+v != individual %+v", parallel, seed, batch[i], want)
			}
		}
	}
}

func TestRunBatchValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.N = 0
	if _, err := RunBatchContext(context.Background(), cfg, []uint64{1}, 1); err == nil {
		t.Fatal("RunBatchContext accepted invalid config")
	}
	cfg = baseConfig(t)
	res, err := RunBatchContext(context.Background(), cfg, nil, 1)
	if err != nil || res != nil {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
}

// TestCloseIdempotent: Close twice, and Close on a pool-less runner.
func TestCloseIdempotent(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Workers = 4
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()

	cfg.Workers = 1
	r1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
}

// TestTopologyMixturePaths checks that every observation vector an agent
// receives on a ring sums to h, for h below and above the neighbourhood
// size.
func TestTopologyMixturePaths(t *testing.T) {
	for _, h := range []int{2, 40} {
		cfg := baseConfig(t)
		cfg.H = h
		cfg.MaxRounds = 4
		ring, err := graph.Ring(cfg.N, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = ring
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for _, seen := range r.pop.(*ProbePop).Seen {
			for _, counts := range seen {
				sum := 0
				for _, c := range counts {
					sum += c
				}
				if sum != h {
					t.Fatalf("h=%d: observation counts sum to %d", h, sum)
				}
			}
		}
	}
}
