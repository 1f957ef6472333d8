package sim

// Tests for the persistent-pool round engine: seeded determinism across
// worker counts, across runner reuse (New vs Reset), batch execution, and
// error propagation for misbehaving protocols.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/rng"
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
		Protocol:        copySourceProtocol{},
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

// badDisplayProtocol displays a symbol outside the alphabet from a chosen
// agent onward.
type badDisplayProtocol struct{ badID int }

func (p badDisplayProtocol) Alphabet() int { return 2 }
func (p badDisplayProtocol) NewAgent(id int, role Role, env Env) Agent {
	sym := 0
	if id == p.badID {
		sym = 7
	}
	return &constAgent{symbol: sym, alphabet: 2}
}

// lateBadProtocol's agent badID displays 0 until it first observes, then a
// symbol outside the alphabet.
type lateBadProtocol struct{ badID int }

func (p lateBadProtocol) Alphabet() int { return 2 }
func (p lateBadProtocol) NewAgent(id int, role Role, env Env) Agent {
	if id == p.badID {
		return &lateBadAgent{constAgent{alphabet: 2}}
	}
	return &constAgent{alphabet: 2}
}

type lateBadAgent struct{ constAgent }

func (a *lateBadAgent) Observe(counts []int, r *rng.Stream) { a.symbol = 7 }

// TestBadDisplayReturnsError verifies a protocol displaying a symbol
// outside the alphabet surfaces as an error from Run — not a panic — under
// both the serial path and the worker pool, on several chunks, and on a
// graph, where displays are published instead of counted. The asynchronous
// scheduler must report it both at the round-0 count and after the
// activation that produced it.
func TestBadDisplayReturnsError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, badID int
		ring     bool
	}{
		{"complete", 100, 57, false},
		{"multichunk", 3 * VecChunkSize, 2*VecChunkSize + 57, false},
		{"ring", 100, 57, true},
		{"multichunk ring", 3 * VecChunkSize, 2*VecChunkSize + 57, true},
	} {
		for _, workers := range []int{1, 4} {
			cfg := baseConfig(t)
			cfg.N = tc.n
			cfg.Protocol = badDisplayProtocol{badID: tc.badID}
			cfg.Workers = workers
			if tc.ring {
				ring, err := graph.Ring(tc.n, 2)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Topology = ring
			}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Run()
			r.Close()
			if err == nil {
				t.Fatalf("%s workers=%d: misbehaving protocol did not error", tc.name, workers)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("agent %d ", tc.badID)) || !strings.Contains(err.Error(), "symbol 7") {
				t.Fatalf("%s workers=%d: unhelpful error %q", tc.name, workers, err)
			}
		}
	}
	for _, p := range []Protocol{badDisplayProtocol{badID: 57}, lateBadProtocol{badID: 57}} {
		for _, ring := range []bool{false, true} {
			cfg := baseConfig(t)
			cfg.Protocol = p
			if ring {
				g, err := graph.Ring(cfg.N, 2)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Topology = g
			}
			r, err := NewAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Run()
			if err == nil || !strings.Contains(err.Error(), "agent 57 ") || !strings.Contains(err.Error(), "symbol 7") {
				t.Fatalf("async %T ring=%v: err = %v", p, ring, err)
			}
		}
	}
}

// mendedAgent displays an out-of-alphabet symbol until it is corrupted.
type mendedAgent struct{ constAgent }

func (a *mendedAgent) Corrupt(mode CorruptionMode, wrong int, r *rng.Stream) { a.symbol = 0 }

type mendedProtocol struct{}

func (mendedProtocol) Alphabet() int { return 2 }
func (mendedProtocol) NewAgent(id int, role Role, env Env) Agent {
	return &mendedAgent{constAgent{symbol: 7, alphabet: 2}}
}

// TestBadFrozenDisplayReturnsError: an agent that crashes while showing a
// symbol outside the alphabet and is corrupted into a legal one in the same
// round must still end Run with an error, since later rounds read the
// frozen symbol, not the live one.
func TestBadFrozenDisplayReturnsError(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = mendedProtocol{}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 1, Fraction: 1, Duration: 2},
		{Kind: faults.KindCorrupt, Round: 1, Fraction: 1, Corruption: faults.CorruptRandom},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "agent 0 ") || !strings.Contains(err.Error(), "symbol 7") {
		t.Fatalf("crash-frozen bad display: err = %v", err)
	}
}

// TestSnapshotNeedsSnapshotter: checkpointing a plain Agent protocol whose
// agents cannot serialize their state must fail, not write a snapshot that
// silently drops it.
func TestSnapshotNeedsSnapshotter(t *testing.T) {
	r, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("Snapshot of non-Snapshotter agents: err = %v", err)
	}
}

// TestFiniteProtocolCappedByMaxRounds covers MaxRounds < the protocol's own
// schedule: the run stops at the cap and does not count as converged, even
// if the population happens to be all-correct.
func TestFiniteProtocolCappedByMaxRounds(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = finiteWrap{Protocol: copySourceProtocol{}, rounds: 50}
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

// TestRunBatchMatchesIndividualRuns: RunBatch must be element-wise identical
// to fresh per-seed runs, regardless of parallelism.
func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	cfg := Config{
		N:               80,
		H:               10,
		Sources1:        3,
		Sources0:        1,
		Noise:           uniform2(t, 0.2),
		Protocol:        copySourceProtocol{},
		StabilityWindow: 2,
		MaxRounds:       300,
		TrackHistory:    true,
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	for _, parallel := range []int{1, 3} {
		batch, err := RunBatch(cfg, seeds, parallel)
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
	cfg.OnRound = func(round, correct int) {}
	if _, err := RunBatch(cfg, []uint64{1}, 1); err == nil {
		t.Fatal("RunBatch accepted OnRound")
	}
	cfg = baseConfig(t)
	cfg.N = 0
	if _, err := RunBatch(cfg, []uint64{1}, 1); err == nil {
		t.Fatal("RunBatch accepted invalid config")
	}
	cfg = baseConfig(t)
	res, err := RunBatch(cfg, nil, 1)
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
		for _, a := range r.Agents() {
			for _, counts := range a.(*constAgent).seen {
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
