package sim

import (
	"fmt"

	"noisypull/internal/rng"
)

// agentPop runs a plain Agent protocol on the per-agent engine: a
// VecPopulation holding one Agent per index. New uses it whenever the
// protocol has no struct-of-arrays kernel (no VecProtocol), so every
// per-agent run shares one round loop, one snapshot format and one fault
// path. A built-in protocol reaches it only when a wrapper hides its
// kernel; its Agents are then lanes over that kernel (lane.go).
//
// StepRange turns the round's VecObs draws into the per-symbol counts
// Agent.Observe takes — K1 on binary alphabets, Counts otherwise — and
// hands the chunk stream to the agent, so an adapted run is deterministic
// in the seed and the chunk layout like any kernel. State-changing hooks map
// onto the optional agent interfaces: InitRange builds agents with NewAgent
// and Seeder, CorruptAt calls Corruptible, and the snapshot ranges call
// Snapshotter.
type agentPop struct {
	proto  Protocol
	spec   VecSpec
	agents []Agent
	// obs holds one observation-count scratch slice per chunk, each padded
	// to a cache line so chunks stepped by different workers never share
	// one; errs holds each chunk's first out-of-alphabet display from the
	// last display pass.
	obs  []int
	errs []error
}

func newAgentPop(proto Protocol, spec VecSpec, numChunks int) *agentPop {
	return &agentPop{
		proto:  proto,
		spec:   spec,
		agents: make([]Agent, spec.N),
		obs:    make([]int, numChunks*obsStride(spec.Env.Alphabet)),
		errs:   make([]error, numChunks),
	}
}

// obsStride is the padded per-chunk length of agentPop.obs.
func obsStride(d int) int { return (d + 7) &^ 7 }

func (p *agentPop) InitRange(lo, hi int, mode CorruptionMode, r *rng.Stream) {
	wrong := 1 - p.spec.Correct
	for i := lo; i < hi; i++ {
		a := p.proto.NewAgent(i, p.spec.Role(i), p.spec.Env)
		if s, ok := a.(Seeder); ok {
			s.SeedInit(r)
		}
		p.agents[i] = a
		if mode != CorruptNone {
			p.CorruptAt(i, mode, wrong, r)
		}
	}
}

// display returns agent i's display, recording a symbol outside the
// alphabet as its chunk's error and counting it as 0 so the engine state
// stays sane until the round aborts.
func (p *agentPop) display(i int) int {
	sym := p.agents[i].Display()
	if sym < 0 || sym >= p.spec.Env.Alphabet {
		if c := i / VecChunkSize; p.errs[c] == nil {
			p.errs[c] = fmt.Errorf("agent %d displayed symbol %d outside alphabet [0, %d)", i, sym, p.spec.Env.Alphabet)
		}
		return 0
	}
	return sym
}

func (p *agentPop) CountRange(lo, hi int, counts []int) {
	p.errs[lo/VecChunkSize] = nil
	for i := lo; i < hi; i++ {
		counts[p.display(i)]++
	}
}

func (p *agentPop) DisplayRange(lo, hi int, out []uint8) {
	p.errs[lo/VecChunkSize] = nil
	for i := lo; i < hi; i++ {
		out[i] = uint8(p.display(i))
	}
}

// displayErr returns the lowest chunk's display error of the last display
// pass, so the reported agent does not depend on the worker count.
func (p *agentPop) displayErr() error {
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *agentPop) StepRange(lo, hi int, obs *VecObs, r *rng.Stream) int {
	d := p.spec.Env.Alphabet
	base := lo / VecChunkSize * obsStride(d)
	counts := p.obs[base : base+d]
	ones := 0
	for i := lo; i < hi; i++ {
		a := p.agents[i]
		if !obs.Crashed(i) {
			if d == 2 {
				k1 := obs.K1(i, r)
				counts[0], counts[1] = obs.H-k1, k1
			} else {
				obs.Counts(i, r, counts)
			}
			a.Observe(counts, r)
		}
		if a.Opinion() == 1 {
			ones++
		}
	}
	return ones
}

func (p *agentPop) State(i int) (display, opinion int) {
	a := p.agents[i]
	return a.Display(), a.Opinion()
}

func (p *agentPop) CorruptAt(i int, mode CorruptionMode, wrong int, r *rng.Stream) {
	if c, ok := p.agents[i].(Corruptible); ok {
		c.Corrupt(mode, wrong, r)
	}
}

// snapshotErr reports why the population cannot be snapshotted: some agent
// does not implement Snapshotter.
func (p *agentPop) snapshotErr() error {
	for _, a := range p.agents {
		if _, ok := a.(Snapshotter); !ok {
			return fmt.Errorf("sim: protocol agent %T does not implement Snapshotter; checkpoint/resume is unavailable", a)
		}
	}
	return nil
}

// SnapshotRange serializes agents [lo, hi); Runner.Snapshot checks
// snapshotErr first.
func (p *agentPop) SnapshotRange(w *SnapWriter, lo, hi int) {
	for _, a := range p.agents[lo:hi] {
		a.(Snapshotter).SnapshotState(w)
	}
}

func (p *agentPop) RestoreRange(rd *SnapReader, lo, hi int) error {
	for _, a := range p.agents[lo:hi] {
		s, ok := a.(Snapshotter)
		if !ok {
			return fmt.Errorf("sim: protocol agent %T does not implement Snapshotter", a)
		}
		s.RestoreState(rd)
	}
	return rd.Err()
}
