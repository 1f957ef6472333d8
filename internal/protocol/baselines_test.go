package protocol

import (
	"testing"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// The step tests below drive one agent of a protocol's kernel with
// hand-picked observation counts, and read or set kernel state directly.

// role is an agent's source status in the step tests.
type role int

const (
	nonSource role = iota
	source0        // a source preferring 0
	source1        // a source preferring 1
)

// agent is agent i of a kernel population.
type agent struct {
	pop sim.VecPopulation
	i   int
}

// newAgent builds p's kernel for env and returns its agent id as a fresh
// arrival: the last agent of an id+1-agent population, so a parity start
// reads id. A source's population holds only sources of its preference.
func newAgent(p sim.Protocol, id int, ro role, env sim.Env) agent {
	spec := sim.VecSpec{Env: env, N: id + 1}
	switch ro {
	case source1:
		spec.Sources1 = id + 1
	case source0:
		spec.Sources0 = id + 1
	}
	a := agent{p.NewVecPopulation(spec), id}
	a.pop.InitRange(0, id+1, sim.CorruptNone, rng.New(uint64(id)))
	return a
}

func (a agent) Display() int {
	display, _ := a.pop.State(a.i)
	return display
}

func (a agent) Opinion() int {
	_, opinion := a.pop.State(a.i)
	return opinion
}

// Observe steps the agent once on a law whose every draw is counts.
func (a agent) Observe(counts []int, r *rng.Stream) {
	a.pop.StepRange(a.i, a.i+1, sim.FixedObs(counts), r)
}

// corrupt applies the protocol's corruption adversary to agent a.
func corrupt(a agent, mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	a.pop.CorruptAt(a.i, mode, wrong, r)
}

// informed reports a TrustBit agent's informed flag.
func informed(a agent) bool {
	return a.pop.(*trustBitPop).informed[a.i] == 1
}

func TestVoterAlphabetAndRoles(t *testing.T) {
	v := Voter{}
	if v.Alphabet() != 2 {
		t.Fatal("voter alphabet != 2")
	}
	env := sfEnv()
	src := newAgent(v, 0, source1, env)
	if src.Display() != 1 || src.Opinion() != 1 {
		t.Fatal("voter source does not display preference")
	}
	ns := newAgent(v, 1, nonSource, env)
	if ns.Display() != 0 {
		t.Fatal("fresh voter non-source displays nonzero")
	}
}

func TestVoterAdoptsObservedSymbol(t *testing.T) {
	env := sfEnv()
	a := newAgent(Voter{}, 1, nonSource, env)
	r := rng.New(1)
	a.Observe([]int{0, 10}, r) // all observations are 1
	if a.Opinion() != 1 {
		t.Fatal("voter did not adopt unanimous observation")
	}
	a.Observe([]int{10, 0}, r)
	if a.Opinion() != 0 {
		t.Fatal("voter did not adopt unanimous observation")
	}
	// Proportional adoption: ~30% ones.
	ones, trials := 0, 2000
	for i := 0; i < trials; i++ {
		a.Observe([]int{7, 3}, r)
		ones += a.Opinion()
	}
	if ones < 450 || ones > 750 {
		t.Fatalf("voter adopted 1 in %d/%d rounds, want ~600", ones, trials)
	}
}

func TestVoterZealotNeverMoves(t *testing.T) {
	env := sfEnv()
	a := newAgent(Voter{}, 0, source0, env)
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		a.Observe([]int{0, 10}, r)
		if a.Opinion() != 0 || a.Display() != 0 {
			t.Fatal("zealot moved")
		}
	}
}

func TestVoterCorruption(t *testing.T) {
	env := sfEnv()
	r := rng.New(4)
	a := newAgent(Voter{}, 1, nonSource, env)
	corrupt(a, sim.CorruptWrongConsensus, 1, r)
	if a.Opinion() != 1 {
		t.Fatal("corruption ignored")
	}
	src := newAgent(Voter{}, 0, source0, env)
	corrupt(src, sim.CorruptWrongConsensus, 1, r)
	if src.Opinion() != 0 {
		t.Fatal("source corrupted despite incorruptible preference display")
	}
}

func TestMajorityRuleBasics(t *testing.T) {
	m := MajorityRule{}
	if m.Alphabet() != 2 {
		t.Fatal("majority alphabet != 2")
	}
	env := sfEnv()
	a := newAgent(m, 2, nonSource, env)
	if a.Opinion() != 0 { // id parity
		t.Fatal("id-2 agent initial opinion != 0")
	}
	b := newAgent(m, 3, nonSource, env)
	if b.Opinion() != 1 {
		t.Fatal("id-3 agent initial opinion != 1")
	}
	r := rng.New(5)
	a.Observe([]int{2, 8}, r)
	if a.Opinion() != 1 {
		t.Fatal("majority agent did not adopt majority")
	}
	a.Observe([]int{9, 1}, r)
	if a.Opinion() != 0 {
		t.Fatal("majority agent did not adopt majority")
	}
}

func TestMajorityRuleSourceFixed(t *testing.T) {
	env := sfEnv()
	a := newAgent(MajorityRule{}, 0, source1, env)
	r := rng.New(6)
	a.Observe([]int{10, 0}, r)
	if a.Opinion() != 1 || a.Display() != 1 {
		t.Fatal("majority source moved")
	}
}

func TestTrustBitBasics(t *testing.T) {
	tb := TrustBit{}
	if tb.Alphabet() != 4 {
		t.Fatal("trustbit alphabet != 4")
	}
	env := ssfEnv()
	src := newAgent(tb, 0, source1, env)
	if src.Display() != ssfSym11 {
		t.Fatal("trustbit source display wrong")
	}
	ns := newAgent(tb, 2, nonSource, env)
	if informed(ns) {
		t.Fatal("fresh non-source claims informed")
	}
	if ns.Display() != ssfSym00 { // id 2: opinion 0, uninformed
		t.Fatalf("fresh display = %d", ns.Display())
	}
}

func TestTrustBitAdoptionAndCascade(t *testing.T) {
	env := ssfEnv()
	r := rng.New(7)
	a := newAgent(TrustBit{}, 2, nonSource, env)

	// No tagged messages: nothing happens.
	a.Observe([]int{5, 5, 0, 0}, r)
	if informed(a) {
		t.Fatal("adopted from untagged messages")
	}

	// Tagged messages leaning 0: adopt 0, become informed, display (1,0).
	a.Observe([]int{0, 0, 3, 1}, r)
	if !informed(a) || a.Opinion() != 0 {
		t.Fatalf("informed=%v opinion=%d", informed(a), a.Opinion())
	}
	if a.Display() != ssfSym10 {
		t.Fatalf("informed display = %d", a.Display())
	}

	// The cascade: a later forged tag flips it again (no damping).
	a.Observe([]int{0, 0, 0, 2}, r)
	if a.Opinion() != 1 {
		t.Fatal("trustbit did not flip on new tagged messages")
	}
}

func TestTrustBitSourceFixed(t *testing.T) {
	env := ssfEnv()
	r := rng.New(8)
	src := newAgent(TrustBit{}, 0, source0, env)
	src.Observe([]int{0, 0, 0, 9}, r)
	if src.Opinion() != 0 || src.Display() != ssfSym10 {
		t.Fatal("trustbit source moved")
	}
}

func TestBaselineCorruptions(t *testing.T) {
	env := ssfEnv()
	r := rng.New(9)
	a := newAgent(TrustBit{}, 2, nonSource, env)
	corrupt(a, sim.CorruptWrongConsensus, 1, r)
	if !informed(a) || a.Opinion() != 1 {
		t.Fatal("trustbit corruption ignored")
	}
	m := newAgent(MajorityRule{}, 2, nonSource, sfEnv())
	corrupt(m, sim.CorruptWrongConsensus, 1, r)
	if m.Opinion() != 1 {
		t.Fatal("majority corruption ignored")
	}
	corrupt(m, sim.CorruptRandom, 1, r)
	if op := m.Opinion(); op != 0 && op != 1 {
		t.Fatal("random corruption out of range")
	}
}
