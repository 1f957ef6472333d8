package sim

import "noisypull/internal/rng"

// lane is a one-agent view of a protocol's own kernel: an Agent whose state
// is agent 0 of a one-agent VecPopulation. Built-in protocols return lanes
// from NewAgent, so each protocol's update rule, corruption adversary and
// snapshot format exist once, in its kernel, and code written against the
// Agent interface (the adapter, unit tests) runs that kernel.
type lane struct {
	pop VecPopulation
	nbr vecNbrObs // Observe's counts, as a fixed observation law
	obs VecObs
}

// NewLane returns the agent with the given id and role as a one-agent
// population of vp's kernel, which sees the full environment env. The agent
// starts as a fresh arrival under CorruptNone, with any seeded state drawn
// from a stream derived from id, so it is usable outside the engine; the
// engine's SeedInit then redraws that state from its own stream.
func NewLane(vp VecProtocol, id int, role Role, env Env) Agent {
	spec := VecSpec{Env: env, N: 1, First: id}
	if role.IsSource {
		if role.Preference == 1 {
			spec.Sources1 = 1
		} else {
			spec.Sources0 = 1
		}
	}
	l := &lane{pop: vp.NewVecPopulation(spec)}
	l.obs.nbr = &l.nbr
	var r rng.Stream
	r.Reseed(uint64(id))
	l.pop.InitRange(0, 1, CorruptNone, &r)
	return l
}

// LanePopulation returns the one-agent population behind an Agent built by
// NewLane, or nil for any other Agent. Tests read and set kernel state
// through it.
func LanePopulation(a Agent) VecPopulation {
	if l, ok := a.(*lane); ok {
		return l.pop
	}
	return nil
}

// Display implements Agent.
func (l *lane) Display() int {
	display, _ := l.pop.State(0)
	return display
}

// Opinion implements Agent.
func (l *lane) Opinion() int {
	_, opinion := l.pop.State(0)
	return opinion
}

// Observe implements Agent: one kernel step on a law whose every draw
// returns counts.
func (l *lane) Observe(counts []int, r *rng.Stream) {
	h := 0
	for _, c := range counts {
		h += c
	}
	l.nbr.fixed = counts
	l.obs.H = h
	l.pop.StepRange(0, 1, &l.obs, r)
}

// SeedInit implements Seeder: it rebuilds the agent as a fresh arrival,
// drawing its seeded state (SF-alternating's first symbol) from r.
func (l *lane) SeedInit(r *rng.Stream) { l.pop.InitRange(0, 1, CorruptNone, r) }

// Corrupt implements Corruptible.
func (l *lane) Corrupt(mode CorruptionMode, wrongOpinion int, r *rng.Stream) {
	l.pop.CorruptAt(0, mode, wrongOpinion, r)
}

// SnapshotState implements Snapshotter.
func (l *lane) SnapshotState(w *SnapWriter) { l.pop.SnapshotRange(w, 0, 1) }

// RestoreState implements Snapshotter. A state the kernel rejects poisons
// the reader, so the restore fails.
func (l *lane) RestoreState(rd *SnapReader) {
	if err := l.pop.RestoreRange(rd, 0, 1); err != nil && rd.err == nil {
		rd.err = err
	}
}
