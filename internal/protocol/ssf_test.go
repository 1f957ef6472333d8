package protocol

import (
	"testing"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

func newSSFAgent(t *testing.T, ro role, env sim.Env, m int) agent {
	t.Helper()
	p := NewSSF(WithSSFUpdateQuota(m))
	if err := p.Check(env); err != nil {
		t.Fatal(err)
	}
	return newAgent(p, 0, ro, env)
}

// ssfLane returns the SSF population holding a; a is its agent 0.
func ssfLane(a agent) *ssfPop { return a.pop.(*ssfPop) }

// memory returns an SSF agent's memory multiset as per-symbol counts.
func memory(a agent) [4]int32 {
	var m [4]int32
	copy(m[:], ssfLane(a).mem)
	return m
}

func TestSSFOptions(t *testing.T) {
	p := NewSSF(WithSSFConstant(9))
	if p.c1 != 9 {
		t.Fatalf("c1 = %v", p.c1)
	}
	if NewSSF().c1 != DefaultC1 {
		t.Fatal("default c1 not applied")
	}
	p = NewSSF(WithSSFUpdateQuota(123))
	m, err := p.UpdateQuota(ssfEnv())
	if err != nil {
		t.Fatal(err)
	}
	if m != 123 {
		t.Fatalf("quota override = %d", m)
	}
}

func TestSSFAlphabet(t *testing.T) {
	if NewSSF().Alphabet() != 4 {
		t.Fatal("SSF alphabet != 4")
	}
}

func TestSSFCheckRejects(t *testing.T) {
	env := ssfEnv()
	env.Delta = 0.3
	if err := NewSSF().Check(env); err == nil {
		t.Error("Check accepted delta 0.3")
	}
	env = ssfEnv()
	env.Alphabet = 2
	if err := NewSSF().Check(env); err == nil {
		t.Error("Check accepted alphabet 2")
	}
	if err := NewSSF(WithSSFUpdateQuota(1 << 30)).Check(ssfEnv()); err != nil {
		t.Errorf("Check rejected the largest quota the kernel's counters hold: %v", err)
	}
	if err := NewSSF(WithSSFUpdateQuota(1<<30 + 1)).Check(ssfEnv()); err == nil {
		t.Error("Check accepted a quota past the kernel's counters")
	}
}

func TestSSFConvergenceRounds(t *testing.T) {
	env := ssfEnv()
	p := NewSSF(WithSSFUpdateQuota(100))
	got, err := p.ConvergenceRounds(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*10 { // 3 * ceil(100/10)
		t.Fatalf("ConvergenceRounds = %d", got)
	}
}

func TestSSFRunBounds(t *testing.T) {
	env := ssfEnv() // h = 10
	for _, tc := range []struct{ m, window, maxRounds int }{
		{100, 20, 6*30 + 20}, // 2·⌈100/10⌉; 6·3·⌈100/10⌉ + window
		{101, 22, 6*33 + 22},
	} {
		window, maxRounds, err := NewSSF(WithSSFUpdateQuota(tc.m)).RunBounds(env)
		if err != nil {
			t.Fatal(err)
		}
		if window != tc.window || maxRounds != tc.maxRounds {
			t.Errorf("m = %d: RunBounds = (%d, %d), want (%d, %d)", tc.m, window, maxRounds, tc.window, tc.maxRounds)
		}
	}
	if _, _, err := NewSSF(WithSSFUpdateQuota(1<<30 + 1)).RunBounds(env); err == nil {
		t.Error("RunBounds accepted a quota past the kernel's counters")
	}
}

// TestSSFNewAgentPanicsOnInvalidEnv: building SSF's agents, its kernel, in
// an environment Check rejects panics.
func TestSSFNewAgentPanicsOnInvalidEnv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVecPopulation with invalid env did not panic")
		}
	}()
	env := ssfEnv()
	env.Delta = 0.3
	NewSSF().NewVecPopulation(sim.VecSpec{Env: env, N: 1})
}

func TestSSFDisplayEncoding(t *testing.T) {
	env := ssfEnv()
	s1 := newSSFAgent(t, source1, env, 10)
	s0 := newSSFAgent(t, source0, env, 10)
	ns := newSSFAgent(t, nonSource, env, 10)
	if s1.Display() != ssfSym11 {
		t.Fatalf("1-source displays %d", s1.Display())
	}
	if s0.Display() != ssfSym10 {
		t.Fatalf("0-source displays %d", s0.Display())
	}
	if ns.Display() != ssfSym00 {
		t.Fatalf("fresh non-source displays %d", ns.Display())
	}
	ssfLane(ns).weak[0] = 1
	if ns.Display() != ssfSym01 {
		t.Fatalf("weak-1 non-source displays %d", ns.Display())
	}
}

func TestSSFUpdateTriggersAtQuota(t *testing.T) {
	env := ssfEnv()
	r := rng.New(1)
	a := newSSFAgent(t, nonSource, env, 20)
	pop := ssfLane(a)

	// 19 messages: below quota, no update, memory accumulates.
	a.Observe([]int{0, 0, 4, 15}, r)
	if pop.total[0] != 19 {
		t.Fatalf("total = %d", pop.total[0])
	}
	if pop.weak[0] != 0 {
		t.Fatal("weak opinion updated below quota")
	}
	// One more crosses the quota: weak opinion from (1,1) vs (1,0) counts —
	// 16 vs 4 -> 1; opinion from value bits — 16 ones vs 4 zeros -> 1.
	a.Observe([]int{0, 0, 0, 1}, r)
	if pop.weak[0] != 1 || a.Opinion() != 1 {
		t.Fatalf("after update: weak = %d, opinion = %d", pop.weak[0], a.Opinion())
	}
	if pop.total[0] != 0 || memory(a) != [4]int32{} {
		t.Fatalf("memory not emptied: %v, total %d", memory(a), pop.total[0])
	}
}

func TestSSFWeakOpinionIgnoresUntaggedMessages(t *testing.T) {
	env := ssfEnv()
	r := rng.New(2)
	a := newSSFAgent(t, nonSource, env, 10)
	// All messages untagged (first bit 0), heavily value-1: weak opinion is
	// a pure coin toss over zero counts... majority(0, 0) -> coin; opinion
	// follows value bits -> 1.
	a.Observe([]int{1, 9, 0, 0}, r)
	if a.Opinion() != 1 {
		t.Fatalf("opinion = %d", a.Opinion())
	}
	// Weak opinion came from a tie over zero tagged messages: either value
	// is possible; just confirm the update consumed the memory.
	if ssfLane(a).total[0] != 0 {
		t.Fatal("memory not consumed")
	}
}

func TestSSFOpinionMajorityOverAllValueBits(t *testing.T) {
	env := ssfEnv()
	r := rng.New(3)
	a := newSSFAgent(t, nonSource, env, 12)
	// Tagged messages lean 1 (3 vs 1) but untagged value bits lean 0
	// (6 zeros vs 2 ones): weak opinion 1, opinion 0 (7 zeros vs 5 ones).
	a.Observe([]int{6, 2, 1, 3}, r)
	if w := ssfLane(a).weak[0]; w != 1 {
		t.Fatalf("weak opinion = %d, want 1", w)
	}
	if a.Opinion() != 0 {
		t.Fatalf("opinion = %d, want 0", a.Opinion())
	}
}

func TestSSFSourceDisplayUnaffectedByState(t *testing.T) {
	env := ssfEnv()
	r := rng.New(4)
	a := newSSFAgent(t, source0, env, 8)
	// Flood with 1-leaning messages; the source's display must stay (1,0)
	// even though its internal opinion converges to 1.
	a.Observe([]int{0, 0, 0, 8}, r)
	if a.Display() != ssfSym10 {
		t.Fatalf("source display = %d", a.Display())
	}
	if a.Opinion() != 1 {
		t.Fatalf("source opinion = %d; wrong-preference sources must adopt the majority", a.Opinion())
	}
}

func TestSSFCorruption(t *testing.T) {
	env := ssfEnv()
	r := rng.New(5)
	a := newSSFAgent(t, nonSource, env, 50)
	corrupt(a, sim.CorruptWrongConsensus, 0, r)
	pa := ssfLane(a)
	if a.Opinion() != 0 || pa.weak[0] != 0 {
		t.Fatal("wrong-consensus corruption did not set opinions")
	}
	if pa.total[0] >= 50 {
		t.Fatalf("corrupted memory size %d >= m", pa.total[0])
	}
	mem := memory(a)
	if sum := mem[0] + mem[1] + mem[2] + mem[3]; sum != pa.total[0] {
		t.Fatalf("memory counts %v inconsistent with total %d", mem, pa.total[0])
	}
	if mem[ssfSym01] != 0 || mem[ssfSym11] != 0 {
		t.Fatal("wrong-consensus corruption injected correct-opinion messages")
	}

	b := newSSFAgent(t, nonSource, env, 50)
	corrupt(b, sim.CorruptRandom, 0, r)
	mem = memory(b)
	if sum := mem[0] + mem[1] + mem[2] + mem[3]; sum != ssfLane(b).total[0] {
		t.Fatalf("random corruption inconsistent: %v vs %d", mem, ssfLane(b).total[0])
	}
}

func TestSSFSelfStabilizesAfterCorruption(t *testing.T) {
	// Unit-level stabilization: a corrupted agent that only ever receives
	// genuine messages is fully governed by them after two updates.
	env := ssfEnv()
	r := rng.New(6)
	a := newSSFAgent(t, nonSource, env, 10)
	corrupt(a, sim.CorruptWrongConsensus, 0, r)
	// Feed genuine 1-source-heavy traffic.
	for i := 0; i < 4; i++ {
		a.Observe([]int{0, 0, 0, 5}, r)
	}
	if w := ssfLane(a).weak[0]; a.Opinion() != 1 || w != 1 {
		t.Fatalf("agent did not recover: opinion %d weak %d", a.Opinion(), w)
	}
}
