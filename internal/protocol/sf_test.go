package protocol

import (
	"testing"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// newSFAgent builds an SF agent with a fixed sample budget so phase lengths
// are predictable in unit tests.
func newSFAgent(t *testing.T, ro role, env sim.Env, m int) agent {
	t.Helper()
	p := NewSF(WithSFSampleBudget(m))
	if err := p.Check(env); err != nil {
		t.Fatal(err)
	}
	return newAgent(p, 0, ro, env)
}

// sfLane returns the SF population holding a; a is its agent 0.
func sfLane(a agent) *sfPop { return a.pop.(*sfPop) }

func TestSFOptions(t *testing.T) {
	p := NewSF(
		WithSFConstant(7),
		WithSFBoostWindow(50),
		WithSFBoostSubPhases(5),
	)
	if p.c1 != 7 || p.boostWindow != 50 || p.boostSubPhase != 5 {
		t.Fatalf("options not applied: %+v", p)
	}
	if NewSF().c1 != DefaultC1 {
		t.Fatal("default c1 not applied")
	}
}

func TestSFAlphabet(t *testing.T) {
	if NewSF().Alphabet() != 2 {
		t.Fatal("SF alphabet != 2")
	}
}

func TestSFCheckRejects(t *testing.T) {
	env := sfEnv()
	env.Delta = 0.5
	if err := NewSF().Check(env); err == nil {
		t.Error("Check accepted delta 0.5")
	}
	if err := NewSF(WithSFBoostWindow(-1)).Check(sfEnv()); err == nil {
		t.Error("Check accepted negative boost window")
	}
	if err := NewSF(WithSFBoostSubPhases(0)).Check(sfEnv()); err == nil {
		t.Error("Check accepted zero sub-phase multiplier")
	}
}

func TestSFParamsAndRounds(t *testing.T) {
	env := sim.Env{N: 1000, H: 10, Alphabet: 2, Delta: 0.2, Sources: 1, Bias: 1}
	p := NewSF(WithSFSampleBudget(100))
	m, phaseT, w, l, err := p.Params(env)
	if err != nil {
		t.Fatal(err)
	}
	if m != 100 {
		t.Fatalf("m = %d", m)
	}
	if phaseT != 10 { // ceil(100/10)
		t.Fatalf("T = %d", phaseT)
	}
	// w = ceil(100/(1-0.4)^2) = ceil(277.8) = 278.
	if w != 278 {
		t.Fatalf("w = %d", w)
	}
	// l = ceil(10 * ln 1000) = ceil(69.08) = 70.
	if l != 70 {
		t.Fatalf("l = %d", l)
	}
	// Rounds = 3T + L*ceil(w/h) = 30 + 70*28.
	if got := p.Rounds(env); got != 30+70*28 {
		t.Fatalf("Rounds = %d", got)
	}
}

func TestSFRoundsInvalidEnvReportsZero(t *testing.T) {
	env := sfEnv()
	env.Delta = 0.7
	if got := NewSF().Rounds(env); got != 0 {
		t.Fatalf("Rounds on invalid env = %d, want 0", got)
	}
}

// TestSFNewAgentPanicsOnInvalidEnv: building SF's agents, its kernel, in an
// environment Check rejects panics.
func TestSFNewAgentPanicsOnInvalidEnv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVecPopulation with invalid env did not panic")
		}
	}()
	env := sfEnv()
	env.Delta = 0.7
	NewSF().NewVecPopulation(sim.VecSpec{Env: env, N: 1})
}

func TestSFDisplaySchedule(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	m := 10 // T = 2 rounds per phase
	r := rng.New(1)

	ns := newSFAgent(t, nonSource, env, m)
	s0 := newSFAgent(t, source0, env, m)
	s1 := newSFAgent(t, source1, env, m)

	counts := []int{3, 2}
	// Phase 0 (rounds 0,1): non-source displays 0; sources their preference.
	for round := 0; round < 2; round++ {
		if ns.Display() != 0 {
			t.Fatalf("round %d: non-source displayed %d in Phase 0", round, ns.Display())
		}
		if s0.Display() != 0 || s1.Display() != 1 {
			t.Fatalf("round %d: sources displayed %d/%d", round, s0.Display(), s1.Display())
		}
		for _, a := range []agent{ns, s0, s1} {
			a.Observe(counts, r)
		}
	}
	// Phase 1 (rounds 2,3): non-source displays 1; sources their preference.
	for round := 2; round < 4; round++ {
		if ns.Display() != 1 {
			t.Fatalf("round %d: non-source displayed %d in Phase 1", round, ns.Display())
		}
		if s0.Display() != 0 || s1.Display() != 1 {
			t.Fatalf("round %d: sources displayed %d/%d", round, s0.Display(), s1.Display())
		}
		for _, a := range []agent{ns, s0, s1} {
			a.Observe(counts, r)
		}
	}
	// Boosting: everyone displays their opinion (= weak opinion initially).
	for _, a := range []agent{ns, s0, s1} {
		if a.Display() != a.Opinion() {
			t.Fatalf("boosting display %d != opinion %d", a.Display(), a.Opinion())
		}
	}
}

func TestSFWeakOpinionFromCounters(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	r := rng.New(2)

	// Phase 0 heavy in 1s, Phase 1 light in 0s -> weak opinion 1.
	a := newSFAgent(t, nonSource, env, 10)
	for i := 0; i < 2; i++ {
		a.Observe([]int{0, 5}, r) // counter1 += 5
	}
	for i := 0; i < 2; i++ {
		a.Observe([]int{1, 4}, r) // counter0 += 1
	}
	if w := sfLane(a).WeakOpinionAt(0); w != 1 || a.Opinion() != 1 {
		t.Fatalf("weak opinion = %d, opinion = %d, want 1", w, a.Opinion())
	}

	// Reverse: more 0s observed in Phase 1.
	b := newSFAgent(t, nonSource, env, 10)
	for i := 0; i < 2; i++ {
		b.Observe([]int{5, 0}, r) // counter1 += 0
	}
	for i := 0; i < 2; i++ {
		b.Observe([]int{5, 0}, r) // counter0 += 5
	}
	if w := sfLane(b).WeakOpinionAt(0); w != 0 {
		t.Fatalf("weak opinion = %d, want 0", w)
	}
}

func TestSFWeakOpinionTieUsesCoin(t *testing.T) {
	env := sim.Env{N: 100, H: 4, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	ones, trials := 0, 200
	for seed := 0; seed < trials; seed++ {
		r := rng.New(uint64(seed))
		a := newSFAgent(t, nonSource, env, 4)
		a.Observe([]int{1, 3}, r) // counter1 = 3
		a.Observe([]int{3, 1}, r) // counter0 = 3
		ones += sfLane(a).WeakOpinionAt(0)
	}
	if ones < 60 || ones > 140 {
		t.Fatalf("tie-breaking produced %d/%d ones; want roughly balanced", ones, trials)
	}
}

func TestSFBoostingMajorityUpdate(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.3, Sources: 1, Bias: 1}
	// w = ceil(100/(1-0.6)^2) = 625 messages per sub-phase.
	r := rng.New(3)
	a := newSFAgent(t, nonSource, env, 10)
	// Fast-forward through the two listening phases (2 rounds each).
	a.Observe([]int{0, 5}, r)
	a.Observe([]int{0, 5}, r)
	a.Observe([]int{5, 0}, r)
	a.Observe([]int{5, 0}, r)
	// Weak opinion: counter1 = 10 vs counter0 = 10 -> coin; force opinion 0
	// to observe the boosting flip.
	pop := sfLane(a)
	pop.opinion[0] = 0

	// Feed 0-heavy messages until just below the quota: opinion unchanged.
	rounds := 625/5 - 1
	for i := 0; i < rounds; i++ {
		a.Observe([]int{1, 4}, r)
	}
	if a.Opinion() != 0 {
		t.Fatal("opinion changed before sub-phase quota")
	}
	// One more round crosses the quota; 1s dominate 4:1.
	a.Observe([]int{1, 4}, r)
	if a.Opinion() != 1 {
		t.Fatal("boosting majority did not flip opinion to 1")
	}
	if pop.boostAll[0] != 0 || pop.boostOnes[0] != 0 {
		t.Fatal("sub-phase memory not reset after update")
	}
	if pop.subPhase[0] != 1 {
		t.Fatalf("subPhase = %d, want 1", pop.subPhase[0])
	}
}

func TestSFSourceInitialOpinionIsPreference(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 2, Bias: 2}
	a := newSFAgent(t, source1, env, 10)
	if a.Opinion() != 1 {
		t.Fatalf("source initial opinion = %d", a.Opinion())
	}
}

func TestSFCorruptWrongConsensus(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	r := rng.New(4)
	a := newSFAgent(t, nonSource, env, 100)
	corrupt(a, sim.CorruptWrongConsensus, 0, r)
	pa := sfLane(a)
	if a.Opinion() != 0 || pa.WeakOpinionAt(0) != 0 {
		t.Fatal("corruption did not set wrong opinion")
	}
	if pa.counter0[0] != 100 || pa.counter1[0] != 0 {
		t.Fatalf("corruption counters = (%d, %d)", pa.counter1[0], pa.counter0[0])
	}
	b := newSFAgent(t, nonSource, env, 100)
	corrupt(b, sim.CorruptWrongConsensus, 1, r)
	if pb := sfLane(b); pb.counter1[0] != 100 || pb.counter0[0] != 0 {
		t.Fatalf("corruption counters = (%d, %d)", pb.counter1[0], pb.counter0[0])
	}
	c := newSFAgent(t, nonSource, env, 100)
	corrupt(c, sim.CorruptRandom, 1, r)
	if rd := int(sfLane(c).round[0]); rd < 0 || rd >= NewSF(WithSFSampleBudget(100)).Rounds(env) {
		t.Fatalf("random corruption round = %d", rd)
	}
}
