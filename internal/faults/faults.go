// Package faults defines the runtime fault-injection model: a deterministic
// schedule of adversarial events — transient state corruption, crashes,
// churn, and noise-matrix changes — applied to a running simulation at
// scheduled or seed-driven random rounds.
//
// The package is deliberately engine-agnostic: it only describes and
// validates schedules, resolves random fire rounds from a seed, and defines
// the telemetry records the engine emits. The application of each fault to a
// population lives in internal/sim, which imports this package (never the
// other way around), so protocols and service code can reference fault types
// without a dependency cycle.
//
// Determinism contract: Compile resolves every random fire round from the
// simulation seed through a dedicated derived RNG stream, so the same
// (Config.Seed, Schedule) pair produces the same fault timeline on every
// run, across Runner.Reset reuse and across observation backends.
package faults

import (
	"errors"
	"fmt"

	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// Corruption selects the adversary used to (re)initialize agent state, both
// at round 0 (the paper's self-stabilizing setting, Section 1.3) and in
// mid-run corruption faults. The adversary may corrupt all internal state
// except source status and knowledge of n and the noise matrix.
type Corruption int

const (
	// CorruptNone leaves states untouched.
	CorruptNone Corruption = iota
	// CorruptWrongConsensus initializes every agent as if the system had
	// converged to the incorrect opinion: memories full of fake supporting
	// samples, opinions and weak opinions set wrong, clocks desynchronized.
	// This is the hardest natural starting point.
	CorruptWrongConsensus
	// CorruptRandom scrambles internal state uniformly at random.
	CorruptRandom
)

func (c Corruption) String() string {
	switch c {
	case CorruptNone:
		return "none"
	case CorruptWrongConsensus:
		return "wrong-consensus"
	case CorruptRandom:
		return "random"
	default:
		return fmt.Sprintf("CorruptionMode(%d)", int(c))
	}
}

// Kind identifies a fault class.
type Kind int

const (
	// KindCorrupt re-corrupts a fraction of agents mid-run, reusing the
	// protocol's round-0 corruption adversary (Theorem 5's transient-fault
	// regime).
	KindCorrupt Kind = iota
	// KindCrash freezes a fraction of agents for Duration rounds: a crashed
	// agent keeps displaying the symbol it showed when it crashed but stops
	// observing and updating, then rejoins with its pre-crash state.
	KindCrash
	// KindChurn replaces a fraction of the non-source agents with freshly
	// initialized (optionally corrupted) agents, modeling arrivals and
	// departures in an open system.
	KindChurn
	// KindNoiseSwap replaces the communication noise matrix (an adversarial
	// channel swap or a δ spike). Alias tables are recomposed on change.
	KindNoiseSwap
	// KindNoiseDrift moves the communication channel to a uniform matrix at
	// the target Delta linearly over DriftRounds rounds (a δ(t) schedule).
	KindNoiseDrift
)

func (k Kind) String() string {
	switch k {
	case KindCorrupt:
		return "corrupt"
	case KindCrash:
		return "crash"
	case KindChurn:
		return "churn"
	case KindNoiseSwap:
		return "noise-swap"
	case KindNoiseDrift:
		return "noise-drift"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. The fire round is either fixed (Round ≥ 1)
// or drawn uniformly from [WindowLo, WindowHi] using seed-derived
// randomness (Round = 0).
type Event struct {
	// Kind selects the fault class.
	Kind Kind
	// Round is the 1-based round the fault fires at, applied before that
	// round's observations. Zero means the round is drawn uniformly from
	// [WindowLo, WindowHi] when the schedule is compiled against a seed.
	Round int
	// WindowLo and WindowHi bound the random fire round (inclusive); used
	// only when Round is zero.
	WindowLo, WindowHi int
	// Fraction is the expected fraction of eligible agents hit (corrupt,
	// crash, churn): each eligible agent is selected independently with this
	// probability. Must be in (0, 1].
	Fraction float64
	// Corruption is the adversary applied to hit agents: required for
	// corrupt events, optional for churn (corrupting the replacements).
	Corruption Corruption
	// Duration is how many rounds crashed agents stay frozen (crash only).
	Duration int
	// Matrix is the replacement communication matrix (noise-swap only). Its
	// alphabet must match the protocol's.
	Matrix *noise.Matrix
	// Delta is the target uniform noise level (noise-drift only). Must
	// satisfy 0 ≤ Delta ≤ 1/|Σ|.
	Delta float64
	// DriftRounds is how many rounds the drift takes (noise-drift only).
	DriftRounds int
}

// Schedule is an ordered set of fault events attached to a simulation.
type Schedule struct {
	// Events are the scheduled faults. Events firing in the same round apply
	// in slice order.
	Events []Event
}

// Validate checks every event against the protocol alphabet, returning a
// descriptive error for the first violation. Engine-specific restrictions
// (backend support) are enforced by sim.Config.Validate on top of this.
func (s *Schedule) Validate(alphabet int) error {
	if s == nil {
		return nil
	}
	if len(s.Events) == 0 {
		return errors.New("faults: schedule has no events")
	}
	for i := range s.Events {
		if err := s.Events[i].validate(alphabet); err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	return nil
}

func (e *Event) validate(alphabet int) error {
	if e.Round < 0 {
		return fmt.Errorf("negative round %d", e.Round)
	}
	if e.Round == 0 {
		if e.WindowLo < 1 || e.WindowHi < e.WindowLo {
			return fmt.Errorf("random round needs 1 <= WindowLo <= WindowHi, got [%d, %d]", e.WindowLo, e.WindowHi)
		}
	} else if e.WindowLo != 0 || e.WindowHi != 0 {
		return fmt.Errorf("fixed round %d excludes a window [%d, %d]", e.Round, e.WindowLo, e.WindowHi)
	}
	switch e.Kind {
	case KindCorrupt:
		if err := e.validateFraction(); err != nil {
			return err
		}
		switch e.Corruption {
		case CorruptWrongConsensus, CorruptRandom:
		case CorruptNone:
			return errors.New("corrupt event needs a corruption mode")
		default:
			return fmt.Errorf("unknown corruption mode %d", int(e.Corruption))
		}
	case KindCrash:
		if err := e.validateFraction(); err != nil {
			return err
		}
		if e.Duration < 1 {
			return fmt.Errorf("crash duration %d, need at least 1 round", e.Duration)
		}
	case KindChurn:
		if err := e.validateFraction(); err != nil {
			return err
		}
		switch e.Corruption {
		case CorruptNone, CorruptWrongConsensus, CorruptRandom:
		default:
			return fmt.Errorf("unknown corruption mode %d", int(e.Corruption))
		}
	case KindNoiseSwap:
		if e.Matrix == nil {
			return errors.New("noise-swap event needs a Matrix")
		}
		if e.Matrix.Alphabet() != alphabet {
			return fmt.Errorf("noise-swap matrix alphabet %d != protocol alphabet %d", e.Matrix.Alphabet(), alphabet)
		}
	case KindNoiseDrift:
		if e.DriftRounds < 1 {
			return fmt.Errorf("drift over %d rounds, need at least 1", e.DriftRounds)
		}
		if e.Delta < 0 || e.Delta*float64(alphabet) > 1 {
			return fmt.Errorf("drift target delta %v outside [0, 1/%d]", e.Delta, alphabet)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", int(e.Kind))
	}
	return nil
}

func (e *Event) validateFraction() error {
	if !(e.Fraction > 0 && e.Fraction <= 1) {
		return fmt.Errorf("fraction %v outside (0, 1]", e.Fraction)
	}
	return nil
}

// scheduleSeedID salts the seed of the stream that resolves random fire
// rounds, so the timeline is independent of both the engine's population
// streams and its fault-application stream.
const scheduleSeedID = 0x666c7473_5eed0002 // "flts" ++ salt

// Timed is one compiled fault occurrence: the event with its fire round
// resolved.
type Timed struct {
	// Round is the resolved 1-based fire round.
	Round int
	// Index is the event's position in Schedule.Events (stable tiebreak and
	// telemetry reference).
	Index int
	// Event is the scheduled fault.
	Event Event
}

// Compile resolves every random fire round from the seed and returns the
// events ordered by (round, schedule index). The schedule itself is not
// modified; compiling the same (schedule, seed) pair always yields the same
// timeline. Call Validate first — Compile assumes a valid schedule.
func (s *Schedule) Compile(seed uint64) []Timed {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	stream := rng.New(rng.DeriveSeed(seed, scheduleSeedID))
	timeline := make([]Timed, len(s.Events))
	for i, e := range s.Events {
		round := e.Round
		if round == 0 {
			// Drawn in schedule order so the resolution is deterministic in
			// (seed, schedule) regardless of window contents.
			round = e.WindowLo + stream.Intn(e.WindowHi-e.WindowLo+1)
		}
		timeline[i] = Timed{Round: round, Index: i, Event: e}
	}
	// Insertion sort by (round, index): schedules are tiny and this keeps
	// equal-round events in declaration order.
	for i := 1; i < len(timeline); i++ {
		for j := i; j > 0 && less(timeline[j], timeline[j-1]); j-- {
			timeline[j], timeline[j-1] = timeline[j-1], timeline[j]
		}
	}
	return timeline
}

func less(a, b Timed) bool {
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	return a.Index < b.Index
}

// Record is the telemetry the engine emits for one applied fault.
type Record struct {
	// Round is the 1-based round the fault was applied before.
	Round int
	// Kind is the fault class.
	Kind Kind
	// Index is the event's position in the schedule.
	Index int
	// Affected is the number of agents hit: the selected agents for
	// corrupt/crash/churn, the whole population for noise events.
	Affected int
	// RecoveredAt is the first round at or after Round in which the whole
	// population held the correct opinion, or 0 if that never happened
	// before the run ended. RecoveredAt − Round is the fault's
	// time-to-recover.
	RecoveredAt int
}
