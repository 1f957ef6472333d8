package protocol

import (
	"bytes"
	"testing"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

func newAltAgent(t *testing.T, ro role, env sim.Env, m int) agent {
	t.Helper()
	p := NewSFAlternating(WithSFSampleBudget(m))
	if err := p.Check(env); err != nil {
		t.Fatal(err)
	}
	return newAgent(p, 0, ro, env)
}

// seedInit rebuilds an agent as a fresh arrival, drawing its seeded state
// from r, as the engine does.
func seedInit(a agent, r *rng.Stream) { a.pop.InitRange(a.i, a.i+1, sim.CorruptNone, r) }

// snapshotOf encodes an agent's mutable state.
func snapshotOf(a agent) []byte {
	var w sim.SnapWriter
	a.pop.SnapshotRange(&w, a.i, a.i+1)
	return w.Bytes()
}

func TestNewSFAlternatingSetsVariant(t *testing.T) {
	if !NewSFAlternating().alternating {
		t.Fatal("NewSFAlternating did not set the variant")
	}
	if NewSF().alternating {
		t.Fatal("standard SF has the variant set")
	}
	// Options compose: the constructor prepends the variant option.
	p := NewSFAlternating(WithSFConstant(7))
	if !p.alternating || p.c1 != 7 {
		t.Fatalf("composed options: %+v", p)
	}
}

func TestAlternatingDisplayPattern(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	a := newAltAgent(t, nonSource, env, 20) // T = 4: listening window 8 rounds
	r := rng.New(3)
	seedInit(a, r)
	first := a.Display()
	counts := []int{3, 2}
	for round := 0; round < 8; round++ {
		want := (first + round) % 2
		if got := a.Display(); got != want {
			t.Fatalf("round %d: displayed %d, want %d", round, got, want)
		}
		a.Observe(counts, r)
	}
	// After the window the agent displays its opinion like standard SF.
	if a.Display() != a.Opinion() {
		t.Fatal("post-window display is not the opinion")
	}
}

func TestAlternatingSourceStillDisplaysPreference(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	a := newAltAgent(t, source1, env, 20)
	r := rng.New(4)
	seedInit(a, r)
	for round := 0; round < 8; round++ {
		if a.Display() != 1 {
			t.Fatalf("source displayed %d during listening", a.Display())
		}
		a.Observe([]int{2, 3}, r)
	}
}

func TestAlternatingCountsBothSymbols(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	a := newAltAgent(t, nonSource, env, 10) // T = 2: window 4 rounds
	r := rng.New(5)
	seedInit(a, r)
	// Feed 1-heavy traffic for the whole window.
	for round := 0; round < 4; round++ {
		a.Observe([]int{1, 4}, r)
	}
	pop := sfLane(a)
	if pop.counter1[0] != 16 || pop.counter0[0] != 4 {
		t.Fatalf("counters = (%d, %d), want (16, 4)", pop.counter1[0], pop.counter0[0])
	}
	if w := pop.WeakOpinionAt(0); w != 1 {
		t.Fatalf("weak opinion = %d", w)
	}
}

func TestAlternatingFirstSymbolBalanced(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	ones := 0
	const trials = 400
	for seed := 0; seed < trials; seed++ {
		a := newAltAgent(t, nonSource, env, 10)
		seedInit(a, rng.New(uint64(seed)))
		ones += int(sfLane(a).firstSym[0])
	}
	if ones < 150 || ones > 250 {
		t.Fatalf("first symbols: %d/%d ones; coin appears biased", ones, trials)
	}
}

func TestAlternatingSeedInitNoopForStandard(t *testing.T) {
	env := sim.Env{N: 100, H: 5, Alphabet: 2, Delta: 0.1, Sources: 1, Bias: 1}
	a := newSFAgent(t, nonSource, env, 10)
	before := snapshotOf(a)
	r := rng.New(1)
	stream := r.State()
	seedInit(a, r)
	if !bytes.Equal(snapshotOf(a), before) {
		t.Fatal("seeded init changed a fresh standard-SF agent's state")
	}
	if r.State() != stream {
		t.Fatal("seeded init drew randomness for a standard-SF agent")
	}
}
