package sim

import (
	"fmt"

	"noisypull/internal/rng"
)

// Probe is the engine's test protocol. Its kernel, ProbePop, keeps one
// display and one opinion per agent (opinions start at 0), records every
// observation vector an agent draws and every corruption that hits it, and
// honours the crash mask. In StepRange it draws K1 (binary alphabet) or
// Counts (otherwise) for each uncrashed agent in index order, then applies
// its rule.
type Probe struct {
	// Symbols is the alphabet size.
	Symbols int
	// Display gives agent i's display as a fresh arrival; nil shows the
	// agent's preference: 1 for a 1-source, 0 for everyone else.
	Display func(i int) int
	// Sticky: an agent that observes a 1 holds opinion 1 for good, and a
	// non-source then displays it. The population converges when the
	// correct opinion is 1 and noise is positive.
	Sticky bool
	// Shift: corruption moves an agent to the next display symbol.
	Shift bool
}

func (p *Probe) Alphabet() int { return p.Symbols }

func (p *Probe) NewVecPopulation(spec VecSpec) VecPopulation {
	n := spec.N
	return &ProbePop{
		p:        p,
		Spec:     spec,
		Display:  make([]int, n),
		Opinion:  make([]int, n),
		Seen:     make([][][]int, n),
		Corrupts: make([]int, n),
		Mode:     make([]CorruptionMode, n),
		Wrong:    make([]int, n),
	}
}

// ProbePop is Probe's kernel. InitRange rebuilds an agent as a fresh
// arrival, clearing its records.
type ProbePop struct {
	p *Probe
	// Spec is the spec the engine built the population with.
	Spec             VecSpec
	Display, Opinion []int
	// Seen[i] lists the observation counts agent i drew, one per step.
	Seen [][][]int
	// Corrupts[i] counts the corruptions that hit agent i, Mode[i] is the
	// last one's mode, and Wrong[i] the wrong opinion it got (−1 before
	// any). They are per agent because the engine builds distinct chunks
	// concurrently.
	Corrupts []int
	Mode     []CorruptionMode
	Wrong    []int
}

func (k *ProbePop) InitRange(lo, hi int, mode CorruptionMode, r *rng.Stream) {
	for i := lo; i < hi; i++ {
		switch {
		case k.p.Display != nil:
			k.Display[i] = k.p.Display(i)
		case i < k.Spec.Sources1:
			k.Display[i] = 1
		default:
			k.Display[i] = 0
		}
		k.Opinion[i], k.Seen[i], k.Corrupts[i], k.Mode[i], k.Wrong[i] = 0, k.Seen[i][:0], 0, CorruptNone, -1
		if mode != CorruptNone {
			k.CorruptAt(i, mode, 1-k.Spec.Correct, r)
		}
	}
}

func (k *ProbePop) CountRange(lo, hi int, counts []int) {
	for _, sym := range k.Display[lo:hi] {
		counts[sym]++
	}
}

func (k *ProbePop) DisplayRange(lo, hi int, out []uint8) {
	for i := lo; i < hi; i++ {
		out[i] = uint8(k.Display[i])
	}
}

func (k *ProbePop) StepRange(lo, hi int, obs *VecObs, r *rng.Stream) int {
	ones := 0
	for i := lo; i < hi; i++ {
		if !obs.Crashed(i) {
			counts := make([]int, k.p.Symbols)
			if len(counts) == 2 {
				counts[1] = obs.K1(i, r)
				counts[0] = obs.H - counts[1]
			} else {
				obs.Counts(i, r, counts)
			}
			k.Seen[i] = append(k.Seen[i], counts)
			if k.p.Sticky && counts[1] > 0 {
				k.Opinion[i] = 1
				if i >= k.Spec.Sources1+k.Spec.Sources0 {
					k.Display[i] = 1
				}
			}
		}
		ones += k.Opinion[i]
	}
	return ones
}

func (k *ProbePop) State(i int) (display, opinion int) { return k.Display[i], k.Opinion[i] }

func (k *ProbePop) CorruptAt(i int, mode CorruptionMode, wrong int, r *rng.Stream) {
	k.Corrupts[i]++
	k.Mode[i], k.Wrong[i] = mode, wrong
	if k.p.Shift {
		k.Display[i] = (k.Display[i] + 1) % k.p.Symbols
	}
}

func (k *ProbePop) SnapshotRange(w *SnapWriter, lo, hi int) {
	for i := lo; i < hi; i++ {
		w.Int(k.Display[i])
		w.Int(k.Opinion[i])
	}
}

func (k *ProbePop) RestoreRange(rd *SnapReader, lo, hi int) error {
	for i := lo; i < hi; i++ {
		display, opinion := rd.Int(), rd.Int()
		if display < 0 || display >= k.p.Symbols || opinion < 0 || opinion > 1 {
			return fmt.Errorf("sim: probe snapshot agent %d has display %d, opinion %d", i, display, opinion)
		}
		k.Display[i], k.Opinion[i] = display, opinion
	}
	return rd.Err()
}
