package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// constProbe displays a fixed symbol everywhere, records observations, and
// always holds opinion 0. It is the instrument used to test the engine
// itself.
func constProbe(symbol, alphabet int) *Probe {
	return &Probe{Symbols: alphabet, Display: func(int) int { return symbol }}
}

// copySource is a deliberately trivial convergent protocol used to test the
// engine's convergence bookkeeping (not noise robustness): any observed 1
// makes the agent stick to opinion 1 forever. When the correct opinion is 1
// and noise is positive, the whole population converges within a couple of
// rounds.
func copySource() *Probe { return &Probe{Symbols: 2, Sticky: true} }

// finiteWrap runs any protocol for a fixed number of rounds.
type finiteWrap struct {
	Protocol
	rounds int
}

func (f finiteWrap) Rounds(env Env) int { return f.rounds }

// sized sizes its own runs, as SSF does with RunBounds.
type sized struct {
	Protocol
	window, maxRounds int
}

func (s sized) RunBounds(Env) (window, maxRounds int, err error) {
	return s.window, s.maxRounds, nil
}

func uniform2(t *testing.T, delta float64) *noise.Matrix {
	t.Helper()
	n, err := noise.Uniform(2, delta)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		N:        100,
		H:        4,
		Sources1: 2,
		Sources0: 1,
		Noise:    uniform2(t, 0.1),
		Protocol: constProbe(0, 2),
		Seed:     1,
	}
}

func TestValidateAcceptsBase(t *testing.T) {
	cfg := baseConfig(t)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindChurn, WindowLo: 2, WindowHi: 8, Fraction: 0.5},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid fault schedule rejected: %v", err)
	}
	cfg.MaxRounds, cfg.StabilityWindow = 10, 10 // equal is allowed; only strictly greater is not
	if err := cfg.Validate(); err != nil {
		t.Fatalf("StabilityWindow == MaxRounds rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	n4, err := noise.Uniform(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	irreducible, err := noise.TwoSymbol(0.6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Only the row named notReducible may fail with ErrNotReducible.
	const notReducible = "irreducible noise"
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil protocol", func(c *Config) { c.Protocol = nil }},
		{"nil noise", func(c *Config) { c.Noise = nil }},
		{"tiny population", func(c *Config) { c.N = 1 }},
		{"zero h", func(c *Config) { c.H = 0 }},
		{"negative sources", func(c *Config) { c.Sources0 = -1 }},
		{"zero bias", func(c *Config) { c.Sources0 = 2; c.Sources1 = 2 }},
		{"no sources", func(c *Config) { c.Sources0 = 0; c.Sources1 = 0 }},
		{"too many sources", func(c *Config) { c.Sources1 = 90; c.Sources0 = 20 }},
		{"sources over n/4", func(c *Config) { c.Sources1 = 30; c.Sources0 = 1 }},
		{"alphabet mismatch", func(c *Config) { c.Noise = n4 }},
		{notReducible, func(c *Config) { c.Noise = irreducible }},
		{"bad backend", func(c *Config) { c.Backend = Backend(99) }},
		{"negative max rounds", func(c *Config) { c.MaxRounds = -1 }},
		{"negative window", func(c *Config) { c.StabilityWindow = -2 }},
		{"window exceeds cap", func(c *Config) { c.MaxRounds = 5; c.StabilityWindow = 6 }},
		{"protocol's window exceeds cap", func(c *Config) { c.Protocol = sized{c.Protocol, 6, 20}; c.MaxRounds = 5 }},
		{"empty fault schedule", func(c *Config) { c.Faults = &faults.Schedule{} }},
		{"bad fault event", func(c *Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCorrupt, Round: 1, Fraction: 0.5}, // missing mode
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			_, err := New(cfg)
			if err == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
			if errors.Is(err, ErrNotReducible) != (tc.name == notReducible) {
				t.Fatalf("New: %v; only %q fails with ErrNotReducible", err, notReducible)
			}
		})
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Sources1: 5, Sources0: 2}
	if cfg.CorrectOpinion() != 1 || cfg.Bias() != 3 {
		t.Fatalf("helpers = %d, %d", cfg.CorrectOpinion(), cfg.Bias())
	}
	cfg = Config{Sources1: 1, Sources0: 4}
	if cfg.CorrectOpinion() != 0 || cfg.Bias() != 3 {
		t.Fatalf("helpers = %d, %d", cfg.CorrectOpinion(), cfg.Bias())
	}
}

// TestRoleAssignment: the engine builds the kernel for the configured
// population, role layout (agents [0, s1) are 1-sources, [s1, s1+s0)
// 0-sources), correct opinion and environment.
func TestRoleAssignment(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = copySource()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := VecSpec{Env: cfg.Env(), N: cfg.N, Sources1: cfg.Sources1, Sources0: cfg.Sources0, Correct: 1}
	if got := r.pop.(*ProbePop).Spec; got != want {
		t.Fatalf("kernel spec = %+v, want %+v", got, want)
	}
}

func TestEnvContents(t *testing.T) {
	cfg := baseConfig(t)
	env := cfg.Env()
	if env.N != 100 || env.H != 4 || env.Alphabet != 2 {
		t.Fatalf("env = %+v", env)
	}
	if env.Sources != 3 || env.Bias != 1 {
		t.Fatalf("env sources/bias = %d/%d", env.Sources, env.Bias)
	}
	if math.Abs(env.Delta-0.1) > 1e-12 {
		t.Fatalf("env delta = %v", env.Delta)
	}
}

func TestEnvDeltaWithArtificialNoise(t *testing.T) {
	nm, err := noise.TwoSymbol(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	red, err := noise.Reduce(nm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Noise = nm
	env := cfg.Env()
	if math.Abs(env.Delta-red.DeltaPrime) > 1e-9 {
		t.Fatalf("env delta = %v, want %v", env.Delta, red.DeltaPrime)
	}
}

func TestObservationCountsSumToH(t *testing.T) {
	cfg := baseConfig(t)
	cfg.H = 7
	cfg.MaxRounds = 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for i, seen := range r.pop.(*ProbePop).Seen {
		if len(seen) != 3 {
			t.Fatalf("agent %d observed %d rounds", i, len(seen))
		}
		for _, counts := range seen {
			sum := 0
			for _, c := range counts {
				sum += c
			}
			if sum != cfg.H {
				t.Fatalf("observation counts sum to %d, want %d", sum, cfg.H)
			}
		}
	}
}

// TestObservationNoiseRate checks that when everyone displays 0 under
// δ-uniform noise, the fraction of 1-observations matches δ.
func TestObservationNoiseRate(t *testing.T) {
	const delta = 0.2
	cfg := Config{
		N:         200,
		H:         50,
		Sources1:  2,
		Sources0:  1,
		Noise:     uniform2(t, delta),
		Protocol:  constProbe(0, 2),
		Seed:      77,
		MaxRounds: 20,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var ones, total float64
	for _, seen := range r.pop.(*ProbePop).Seen {
		for _, counts := range seen {
			ones += float64(counts[1])
			total += float64(counts[0] + counts[1])
		}
	}
	if got := ones / total; math.Abs(got-delta) > 0.005 {
		t.Fatalf("observed flip rate %v, want %v", got, delta)
	}
}

// TestBackendsStatisticallyAgree checks the mean observed-ones per round
// under a mixed display profile against the mixture law.
func TestBackendsStatisticallyAgree(t *testing.T) {
	cfg := Config{
		N:         150,
		H:         30,
		Sources1:  30, // 30 agents display 1 (sources with pref 1)
		Sources0:  10,
		Noise:     uniform2(t, 0.25),
		Protocol:  &Probe{Symbols: 2}, // 1-sources display 1, everyone else 0
		Seed:      5,
		MaxRounds: 40,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var ones, rounds float64
	for _, seen := range r.pop.(*ProbePop).Seen {
		for _, counts := range seen {
			ones += float64(counts[1])
			rounds++
		}
	}
	// Expected ones per observation: sources-1 display 1, everyone else
	// displays 0, so p = (30*(0.75) + 120*0.25)/150.
	want := (30*0.75 + 120*0.25) / 150 * 30
	if m := ones / rounds; math.Abs(m-want) > 0.25 {
		t.Fatalf("mean ones %v, want ~%v", m, want)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Result {
		cfg := Config{
			N:               120,
			H:               16,
			Sources1:        3,
			Sources0:        1,
			Noise:           uniform2(t, 0.15),
			Protocol:        copySource(),
			Seed:            42,
			Workers:         workers,
			StabilityWindow: 3,
			MaxRounds:       500,
			TrackHistory:    true,
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r4 := run(4)
	r16 := run(16)
	if r1.Rounds != r4.Rounds || r4.Rounds != r16.Rounds {
		t.Fatalf("rounds differ: %d, %d, %d", r1.Rounds, r4.Rounds, r16.Rounds)
	}
	for i := range r1.History {
		if r1.History[i] != r4.History[i] || r1.History[i] != r16.History[i] {
			t.Fatalf("history diverges at round %d", i)
		}
	}
}

func TestConvergenceBookkeeping(t *testing.T) {
	cfg := Config{
		N:               60,
		H:               20,
		Sources1:        6,
		Sources0:        2,
		Noise:           uniform2(t, 0.05),
		Protocol:        copySource(),
		Seed:            3,
		StabilityWindow: 5,
		MaxRounds:       1000,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("copy protocol did not converge: %+v", res)
	}
	if res.CorrectOpinion != 1 {
		t.Fatalf("correct opinion = %d", res.CorrectOpinion)
	}
	if res.FinalCorrect != cfg.N {
		t.Fatalf("final correct = %d", res.FinalCorrect)
	}
	if res.FirstAllCorrect == 0 || res.FirstAllCorrect > res.Rounds {
		t.Fatalf("first all-correct = %d of %d", res.FirstAllCorrect, res.Rounds)
	}
	if res.Rounds-res.FirstAllCorrect+1 < cfg.StabilityWindow {
		t.Fatalf("stability window not satisfied: first=%d rounds=%d", res.FirstAllCorrect, res.Rounds)
	}
}

func TestFiniteProtocolRunsExactRounds(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = finiteWrap{Protocol: copySource(), rounds: 17}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 17 {
		t.Fatalf("finite protocol ran %d rounds, want 17", res.Rounds)
	}
}

// TestResolveStoppingRule: a zero StabilityWindow takes the window of a
// protocol that sizes its own runs, and a zero MaxRounds with it that
// protocol's cap; otherwise the budget defaults from N and the window to 1.
// A Finite protocol's schedule is read once, at construction.
func TestResolveStoppingRule(t *testing.T) {
	def := defaultMaxRounds(100)
	for _, tc := range []struct {
		name                 string
		proto                Protocol
		window, maxRounds    int
		wantWindow, wantLast int
		wantFinite           int
	}{
		{"defaults", constProbe(0, 2), 0, 0, 1, def, 0},
		{"caller's", constProbe(0, 2), 3, 40, 3, 40, 0},
		{"protocol's", sized{constProbe(0, 2), 6, 50}, 0, 0, 6, 50, 0},
		{"protocol's window, caller's cap", sized{constProbe(0, 2), 6, 50}, 0, 30, 6, 30, 0},
		{"caller's window", sized{constProbe(0, 2), 6, 50}, 2, 0, 2, def, 0},
		{"finite", finiteWrap{copySource(), 7}, 0, 0, 1, def, 7},
	} {
		cfg := baseConfig(t)
		cfg.Protocol, cfg.StabilityWindow, cfg.MaxRounds = tc.proto, tc.window, tc.maxRounds
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.window != tc.wantWindow || r.last != tc.wantLast || r.finite != tc.wantFinite {
			t.Errorf("%s: window %d, budget %d, schedule %d; want %d, %d, %d", tc.name, r.window, r.last, r.finite, tc.wantWindow, tc.wantLast, tc.wantFinite)
		}
	}
}

// TestFiniteProtocolInvalidDuration: a finite schedule shorter than one
// round is a configuration error, which Validate and New report.
func TestFiniteProtocolInvalidDuration(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = finiteWrap{Protocol: copySource(), rounds: 0}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a zero-duration finite protocol")
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a zero-duration finite protocol")
	}
}

func TestMaxRoundsCapsInfiniteProtocol(t *testing.T) {
	cfg := baseConfig(t) // constProbe never reaches opinion 1... correct is 1
	cfg.MaxRounds = 25
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 25 || res.Converged {
		t.Fatalf("result = %+v", res)
	}
}

func TestOnRoundCallback(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MaxRounds = 5
	var rounds []int
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetOnRound(func(round, correct int) { rounds = append(rounds, round) })
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 5 || rounds[0] != 1 || rounds[4] != 5 {
		t.Fatalf("callback rounds = %v", rounds)
	}
}

// TestCorruptionInvocation verifies that the engine corrupts every agent
// at round 0 exactly when configured.
func TestCorruptionInvocation(t *testing.T) {
	corrupted := func(r *Runner) int {
		count := 0
		for _, c := range r.pop.(*ProbePop).Corrupts {
			count += c
		}
		return count
	}
	cfg := baseConfig(t)
	cfg.Corruption = CorruptWrongConsensus
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if count := corrupted(r); count != cfg.N {
		t.Fatalf("corrupted %d agents, want %d", count, cfg.N)
	}
	// Correct opinion is 1 (s1 > s0), so the adversary pushes 0.
	for i, got := range r.pop.(*ProbePop).Wrong {
		if got != 0 {
			t.Fatalf("agent %d: wrong opinion = %d", i, got)
		}
	}

	cfg.Corruption = CorruptNone
	if r, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if count := corrupted(r); count != 0 {
		t.Fatalf("CorruptNone corrupted %d agents", count)
	}
}

func TestBackendStrings(t *testing.T) {
	if BackendAuto.String() != "auto" || BackendExact.String() != "exact" ||
		BackendAggregate.String() != "aggregate" || Backend(9).String() == "" {
		t.Fatal("backend strings wrong")
	}
	if CorruptNone.String() != "none" || CorruptWrongConsensus.String() != "wrong-consensus" ||
		CorruptRandom.String() != "random" || CorruptionMode(9).String() == "" {
		t.Fatal("corruption strings wrong")
	}
}

func TestHistoryTracking(t *testing.T) {
	cfg := baseConfig(t)
	cfg.MaxRounds = 10
	cfg.TrackHistory = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("history length = %d", len(res.History))
	}
	for _, c := range res.History {
		if c < 0 || c > cfg.N {
			t.Fatalf("history count %d out of range", c)
		}
	}
}

func TestSamplingWithReplacementAllowsHGreaterThanN(t *testing.T) {
	cfg := baseConfig(t)
	cfg.N = 10
	cfg.H = 50
	cfg.Sources1 = 2
	cfg.Sources0 = 1
	cfg.MaxRounds = 2
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
			if sum != 50 {
				t.Fatalf("h>n counts sum to %d", sum)
			}
		}
	}
}

// TestConfigFuzzConsistency drives random configurations through Validate
// and New: whenever Validate accepts, New must succeed and a short run must
// complete with coherent bookkeeping; whenever Validate rejects, New must
// reject too.
func TestConfigFuzzConsistency(t *testing.T) {
	r := rng.New(31337)
	nm2 := uniform2(t, 0.2)
	nm4, err := noise.Uniform(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		alphabet := 2
		var matrix *noise.Matrix
		if r.Coin() == 0 {
			matrix = nm2
		} else {
			matrix = nm4
			alphabet = 4
		}
		cfg := Config{
			N:         r.Intn(60) - 2, // may be invalid
			H:         r.Intn(20) - 2,
			Sources1:  r.Intn(8) - 1,
			Sources0:  r.Intn(8) - 1,
			Noise:     matrix,
			Protocol:  constProbe(0, alphabet),
			Seed:      uint64(trial),
			Backend:   Backend(r.Intn(4) - 1), // may be invalid
			MaxRounds: 3,
		}
		err := cfg.Validate()
		runner, newErr := New(cfg)
		if (err == nil) != (newErr == nil) {
			t.Fatalf("trial %d: Validate err=%v but New err=%v (cfg %+v)", trial, err, newErr, cfg)
		}
		if err != nil {
			continue
		}
		res, runErr := runner.Run()
		if runErr != nil {
			t.Fatalf("trial %d: run failed: %v", trial, runErr)
		}
		// The run may end before MaxRounds if the constant protocol happens
		// to hold the correct opinion (s0 > s1) and stabilizes immediately.
		if res.Rounds < 1 || res.Rounds > 3 {
			t.Fatalf("trial %d: rounds = %d", trial, res.Rounds)
		}
		if res.FinalCorrect < 0 || res.FinalCorrect > cfg.N {
			t.Fatalf("trial %d: final correct %d", trial, res.FinalCorrect)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	ring, err := graph.Ring(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Topology = ring
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	// Size mismatch.
	cfg.N = 99
	cfg.Sources1, cfg.Sources0 = 2, 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("size-mismatched topology accepted")
	}
	// Every per-agent label runs on a topology; the counts backend cannot.
	for _, b := range []Backend{BackendAuto, BackendExact, BackendAggregate} {
		cfg = baseConfig(t)
		cfg.Topology = ring
		cfg.Backend = b
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v backend with topology rejected: %v", b, err)
		}
	}
	cfg = baseConfig(t)
	cfg.Topology = ring
	cfg.Protocol = rowProto{}
	cfg.Backend = BackendCounts
	if err := cfg.Validate(); err == nil {
		t.Fatal("counts backend with topology accepted")
	} else if !strings.Contains(err.Error(), "complete graph") {
		t.Fatalf("counts backend with topology: err = %v", err)
	}
	// Isolated vertex.
	empty, err := graph.ErdosRenyi(100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg = baseConfig(t)
	cfg.Topology = empty
	if err := cfg.Validate(); err == nil {
		t.Fatal("isolated-vertex topology accepted")
	}
}

// TestTopologySamplingRespectsNeighborhoods pins displays by agent id and
// verifies an agent on a ring only ever observes (noiselessly) its
// neighbors' symbols.
func TestTopologySamplingRespectsNeighborhoods(t *testing.T) {
	const n = 40
	ring, err := graph.Ring(n, 1) // neighbors of v: v±1
	if err != nil {
		t.Fatal(err)
	}
	// Display 1 only at vertices 10 and 12; everyone else displays 0.
	proto := &Probe{Symbols: 2, Display: func(i int) int {
		if i == 10 || i == 12 {
			return 1
		}
		return 0
	}}
	cfg := Config{
		N: n, H: 50, Sources1: 2, Sources0: 1,
		Noise:     uniform2(t, 0), // noiseless: observations are exact
		Protocol:  proto,
		Seed:      3,
		Topology:  ring,
		MaxRounds: 10,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for i, seen := range r.pop.(*ProbePop).Seen {
		sawOne := false
		for _, counts := range seen {
			if counts[1] > 0 {
				sawOne = true
			}
		}
		// Only vertex 11 has both neighbors displaying 1; vertices 9, 11,
		// 13 have at least one 1-neighbor.
		wantOne := i == 9 || i == 11 || i == 13
		if sawOne != wantOne {
			t.Fatalf("vertex %d sawOne=%v, want %v", i, sawOne, wantOne)
		}
	}
}

// rowProto is a two-class countable protocol (class = display = opinion,
// agents split evenly) whose class-1 rows can be set to invalid ones; nil
// rows keep every class in place.
type rowProto struct {
	transition, corrupt []float64
}

func (rowProto) Alphabet() int { return 2 }
func (rowProto) NewVecPopulation(spec VecSpec) VecPopulation {
	return constProbe(0, 2).NewVecPopulation(spec)
}
func (rowProto) NumStates(Env) int          { return 2 }
func (rowProto) DisplayOf(_ Env, s int) int { return s }
func (rowProto) OpinionOf(_ Env, s int) int { return s }
func (rowProto) InitialCounts(env Env, _, _ int, counts []int) {
	counts[0], counts[1] = env.N/2, env.N-env.N/2
}
func (p rowProto) TransitionRow(_ Env, s int, _ []float64, row []float64) {
	p.fill(s, p.transition, row)
}
func (p rowProto) CorruptRow(_ Env, s int, _ CorruptionMode, _ int, row []float64) {
	p.fill(s, p.corrupt, row)
}
func (rowProto) fill(s int, bad, row []float64) {
	if s == 1 && bad != nil {
		copy(row, bad)
		return
	}
	row[0], row[1] = 0, 0
	row[s] = 1
}

// TestCountsRejectsBadRows: a TransitionRow or CorruptRow with a NaN entry
// or a total off 1 fails the run with an error naming the class and row,
// whether the corrupt row serves a KindCorrupt fault or round-0
// corruption.
func TestCountsRejectsBadRows(t *testing.T) {
	corruptAt3 := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 3, Fraction: 1, Corruption: faults.CorruptRandom},
	}}
	for _, tc := range []struct {
		name  string
		proto rowProto
		sched *faults.Schedule
		start CorruptionMode
		want  string
	}{
		{"transition NaN", rowProto{transition: []float64{math.NaN(), 1}}, nil, CorruptNone, "class 1 transition row has invalid probability NaN"},
		{"transition sums to 0.9", rowProto{transition: []float64{0.4, 0.5}}, nil, CorruptNone, "class 1 transition row sums to 0.9"},
		{"corrupt row", rowProto{corrupt: []float64{0.7, 0.7}}, corruptAt3, CorruptNone, "class 1 corrupt row sums to 1.4"},
		{"round-0 corrupt row", rowProto{corrupt: []float64{0.7, 0.7}}, nil, CorruptRandom, "class 1 corrupt row sums to 1.4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t)
			cfg.Protocol = tc.proto
			cfg.Backend = BackendCounts
			cfg.MaxRounds = 5
			cfg.Faults = tc.sched
			cfg.Corruption = tc.start
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsUnknownLabel: a snapshot whose header records a backend
// label outside the four (its checksum recomputed, so only the label is
// wrong) fails Restore with an error naming the label.
func TestRestoreRejectsUnknownLabel(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Protocol = rowProto{}
	cfg.Backend = BackendCounts
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()
	// magic, version, fingerprint, then four u64 round counters.
	const labelAt = 4 + 2 + 8 + 4*8
	snap[labelAt] = 7
	Reseal(snap)
	if err := r.Restore(snap); err == nil || !strings.Contains(err.Error(), "label 7") {
		t.Fatalf("err = %v, want one naming label 7", err)
	}
}
