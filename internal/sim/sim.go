// Package sim implements the synchronous-round simulation engine for the
// noisy PULL(h) model (paper Section 1.3).
//
// In each round every agent displays a symbol from the protocol alphabet Σ;
// every agent then samples h agents uniformly at random with replacement
// (possibly itself) and receives, for each sample, a noisy copy of the
// displayed symbol drawn from the noise matrix row; finally every agent
// updates its state from the multiset of observations.
//
// The engine has two population representations:
//
//   - The per-agent engine (every Backend but BackendCounts) keeps every
//     agent's state in a VecPopulation: the protocol's struct-of-arrays
//     kernel, which is its only definition. Each agent's observation vector
//     is one draw from the round's law (see vector.go). AsyncRunner
//     activates the same populations one agent at a time.
//   - BackendCounts drops per-agent state entirely for protocols whose
//     agents are exchangeable within a small set of state classes
//     (CountableProtocol): the population is a vector of class counts and
//     each round multinomially partitions every class over its successor
//     classes. O(K·(K+|Σ|)) work per round — independent of n — enabling
//     n = 10⁸–10⁹.
//
// Protocols receive observations as per-symbol counts, which is exactly the
// information available to the anonymous agents of the model (observations
// within a round carry no identity or order).
//
// Determinism: every fixed-size chunk of agents owns an rng stream derived
// from (seed, chunk index), and rounds are barrier-synchronized, so results
// are bit-identical for any worker count.
package sim

import (
	"errors"
	"fmt"
	"math"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
)

// Backend selects one of the two engines: BackendCounts, or the per-agent
// engine under any other label. A run's label is recorded in its snapshots.
type Backend int

const (
	// BackendAuto selects the per-agent engine.
	BackendAuto Backend = iota
	// BackendExact and BackendAggregate are older names of the per-agent
	// engine, kept because callers set them and snapshots record them; all
	// three per-agent labels run the same engine.
	BackendExact
	BackendAggregate
	// BackendCounts advances the population as state-class counts; it
	// requires a CountableProtocol and the complete graph. Per-round cost is
	// independent of n, and the round distribution is identical to the
	// per-agent engine's (see counts.go).
	BackendCounts
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendExact:
		return "exact"
	case BackendAggregate:
		return "aggregate"
	case BackendCounts:
		return "counts"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Env carries the system parameters the paper allows protocol designers to
// know (Theorems 4 and 5 are stated for a designer who knows n, h, the
// noise level, the number of sources, and the bias — but crucially not
// which opinion is correct).
type Env struct {
	// N is the population size.
	N int
	// H is the per-round sample size.
	H int
	// Alphabet is |Σ|.
	Alphabet int
	// Delta is the uniform noise level the protocol should assume. When the
	// engine applies artificial noise (Theorem 8), this is δ′ = f(δ).
	Delta float64
	// Sources is the total number of source agents, s0 + s1.
	Sources int
	// Bias is s = |s1 − s0| ≥ 1.
	Bias int
}

// Protocol is a protocol's struct-of-arrays kernel: the engine builds the
// population with NewVecPopulation and advances it through the
// VecPopulation range methods. Implementations live in package protocol.
type Protocol interface {
	// Alphabet returns the message alphabet size the protocol uses.
	Alphabet() int
	// NewVecPopulation allocates a population for spec. It may panic on an
	// environment outside the protocol's domain, which Config.Validate
	// rejects first through the protocol's Check.
	NewVecPopulation(spec VecSpec) VecPopulation
}

// CountableProtocol is an optional Protocol extension for protocols whose
// agents are exchangeable within a small finite set of state equivalence
// classes (all agents in one class display the same symbol, hold the same
// opinion, and share one transition law). Such populations can be advanced
// as class counts instead of individuals (BackendCounts): given the round's
// display snapshot, every agent's h observations are iid draws from the same
// per-observation distribution, agents transition independently, and the
// number of class-s agents moving to each successor class is exactly
// Multinomial(count[s], TransitionRow(s)). The counts backend is therefore
// distribution-identical to the per-agent engine, not a mean-field
// approximation.
//
// Implementations must keep the class semantics consistent with the
// protocol's kernel: InitialCounts must reproduce the class histogram of a
// freshly built, uncorrupted per-agent population, DisplayOf/OpinionOf must
// match VecPopulation.State for agents in the class, TransitionRow must
// equal the conditional law of one agent's update given its class and the
// observation distribution, and CorruptRow the law of one agent's class
// after the adversary hits it. CorruptRow is the backend's only corruption
// rule: Config.Corruption hits every agent of the fresh population with it,
// and a KindCorrupt fault each agent with the event's fraction.
type CountableProtocol interface {
	Protocol
	// NumStates returns the number K of agent-state equivalence classes.
	NumStates(env Env) int
	// DisplayOf returns the symbol in [0, |Σ|) displayed by agents of the
	// class.
	DisplayOf(env Env, state int) int
	// OpinionOf returns the opinion in {0, 1} held by agents of the class.
	OpinionOf(env Env, state int) int
	// InitialCounts fills counts (length NumStates, zeroed) with the number
	// of agents starting in each class of a fresh, uncorrupted population
	// with sources1 and sources0 sources preferring 1 and 0.
	InitialCounts(env Env, sources1, sources0 int, counts []int)
	// TransitionRow fills row (length NumStates) with the probability that
	// an agent currently in the class moves to each class this round, given
	// that each of its env.H observations is independently distributed over
	// the alphabet as obs (which sums to 1).
	TransitionRow(env Env, state int, obs []float64, row []float64)
	// CorruptRow fills row (length NumStates) with the probability that one
	// agent currently in the class lands in each class after the adversary
	// hits it under mode; wrongOpinion is the complement of the correct
	// opinion. It must be distribution-identical to VecPopulation.CorruptAt
	// on one agent of the class (a source, which CorruptAt leaves alone,
	// gets an identity row).
	CorruptRow(env Env, state int, mode CorruptionMode, wrongOpinion int, row []float64)
}

// Finite is implemented by protocols with a predetermined duration (such as
// SF, whose phases are fixed by n, h, δ, s): the engine runs them for
// exactly Rounds rounds, which Config.Validate requires to be at least 1.
type Finite interface {
	// Rounds returns the total number of rounds the protocol runs.
	Rounds(env Env) int
}

// CorruptionMode selects the adversary used to initialize agents in the
// self-stabilizing setting (paper Section 1.3): the adversary may corrupt
// all internal state except source status and knowledge of n and the noise
// matrix. It is an alias of faults.Corruption so fault schedules and
// round-0 corruption share one vocabulary (the same modes drive mid-run
// KindCorrupt events).
type CorruptionMode = faults.Corruption

const (
	// CorruptNone leaves initial states untouched.
	CorruptNone = faults.CorruptNone
	// CorruptWrongConsensus initializes every agent as if the system had
	// converged to the incorrect opinion: memories full of fake supporting
	// samples, opinions and weak opinions set wrong, clocks desynchronized.
	// This is the hardest natural starting point.
	CorruptWrongConsensus = faults.CorruptWrongConsensus
	// CorruptRandom scrambles internal state uniformly at random.
	CorruptRandom = faults.CorruptRandom
)

// Config specifies one simulation (the public noisypull.Config is this
// type). The zero value is not runnable: N, H, sources, Noise and Protocol
// are required.
type Config struct {
	// N is the number of agents.
	N int
	// H is the sample size per round (1 ≤ H; H may exceed N since sampling
	// is with replacement).
	H int
	// Sources1 and Sources0 are the numbers of sources preferring 1 and 0.
	// They must differ (bias ≥ 1) and satisfy s0, s1 ≤ n/4 (Eq. 18).
	Sources1, Sources0 int
	// Noise is the communication channel's noise matrix. Its alphabet must
	// match the protocol's. If it is not δ-uniform, every agent applies the
	// Theorem 8 artificial noise P = N⁻¹·T to each received message
	// (Definition 6), so the agents observe through the f(δ)-uniform channel
	// N·P; a matrix the reduction cannot handle fails with ErrNotReducible.
	Noise *noise.Matrix
	// Protocol builds the population: a built-in protocol (SF, SSF, a
	// baseline) or a CountableProtocol that embeds one.
	Protocol Protocol
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64
	// Backend selects the counts engine (BackendCounts) or the per-agent
	// engine (any other label; BackendAuto by default).
	Backend Backend
	// MaxRounds caps the run for infinite protocols (and acts as a safety
	// cap for finite ones). Zero means the cap of the protocol's RunBounds
	// when StabilityWindow is also zero, else a default of 200·n + 10000.
	MaxRounds int
	// StabilityWindow is how many consecutive all-correct rounds an
	// infinite protocol must hold to count as converged. Zero means the
	// window of a protocol that sizes its own runs with a RunBounds(Env)
	// (window, maxRounds int, err error) method — SSF's spans two update
	// cycles, 2·⌈m/h⌉ rounds — else 1.
	StabilityWindow int
	// Corruption selects adversarial initialization for the
	// self-stabilizing setting.
	Corruption CorruptionMode
	// Faults, if non-nil, schedules runtime fault injection: mid-run
	// corruption, crashes, churn, and noise-matrix changes, applied before
	// the observations of their fire round. The timeline is deterministic in
	// Seed. The counts backend supports noise events and uniform transient
	// corruption only; Validate rejects the rest. Telemetry lands in
	// Result.Faults.
	Faults *faults.Schedule
	// Topology, if non-nil, restricts sampling: each agent draws its h
	// observations uniformly (with replacement) from its graph neighbors
	// instead of the whole population. It needs the per-agent engine;
	// Validate rejects it with BackendCounts. Nil means the paper's
	// complete-graph model.
	Topology *graph.Graph
	// Workers is the number of goroutines stepping agents; 0 means
	// GOMAXPROCS. Results do not depend on it.
	Workers int
	// TrackHistory records the per-round count of agents holding the
	// correct opinion in Result.History (a Runner's SetOnRound and
	// SetOnFault observe rounds and faults as they happen).
	TrackHistory bool
}

// Result reports a finished simulation.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports success: for finite protocols, all agents correct
	// when the protocol ended; for infinite ones, all-correct held for the
	// stability window before MaxRounds.
	Converged bool
	// FirstAllCorrect is the first (1-based) round of the final streak of
	// all-correct rounds — i.e. the moment stable consensus on the correct
	// opinion was reached — or 0 if the run did not end all-correct.
	FirstAllCorrect int
	// CorrectOpinion is the plurality preference among sources.
	CorrectOpinion int
	// FinalCorrect is the number of agents holding the correct opinion at
	// the end.
	FinalCorrect int
	// History, when requested, holds the per-round correct-opinion counts.
	History []int
	// Faults records every applied fault with its recovery telemetry, in
	// application order. Nil when the run had no fault schedule.
	Faults []faults.Record
}

// ErrNotReducible is returned when Config.Noise is not δ-uniform and too
// noisy for the Theorem 8 reduction (its upper-bound level is not below
// 1/|Σ|).
var ErrNotReducible = errors.New("noisypull: noise matrix is not reducible to uniform (delta >= 1/|alphabet|)")

// resolved is what a run reads from its Config beyond the fields
// themselves.
type resolved struct {
	// artificial is the Theorem 8 matrix P = N⁻¹·T every agent applies to
	// each received message; nil when Noise is δ-uniform.
	artificial *noise.Matrix
	// eff is the channel the observation laws read: Noise composed with
	// artificial.
	eff *noise.Matrix
	// env is the environment handed to the agents.
	env Env
	// window, last and finite decide when the run stops: after window
	// consecutive all-correct rounds, at round last (the budget) at the
	// latest, and at round finite for a Finite protocol (0 for any other).
	window, last, finite int
}

// runBounds is implemented by protocols that size their own runs (SSF): a
// zero StabilityWindow takes their window, and a zero MaxRounds with it
// their round cap.
type runBounds interface {
	RunBounds(env Env) (window, maxRounds int, err error)
}

// resolve validates the configuration (see Validate) and derives the run's
// channel, environment and stopping rule. The environment is set once the
// channel is derived, even if a later check fails.
func (c *Config) resolve() (resolved, error) {
	var rc resolved
	if c.Protocol == nil {
		return rc, errors.New("sim: config needs a Protocol")
	}
	if c.Noise == nil {
		return rc, errors.New("sim: config needs a Noise matrix")
	}
	if c.N < 2 {
		return rc, fmt.Errorf("sim: N = %d, need at least 2 agents", c.N)
	}
	if c.H < 1 {
		return rc, fmt.Errorf("sim: H = %d, need at least 1 sample per round", c.H)
	}
	if c.Sources0 < 0 || c.Sources1 < 0 {
		return rc, fmt.Errorf("sim: negative source counts (%d, %d)", c.Sources0, c.Sources1)
	}
	if c.Sources0 == c.Sources1 {
		return rc, fmt.Errorf("sim: bias is zero (s0 = s1 = %d); the correct opinion is undefined", c.Sources0)
	}
	if c.Sources0+c.Sources1 == 0 {
		return rc, errors.New("sim: no sources")
	}
	if c.Sources0+c.Sources1 > c.N {
		return rc, fmt.Errorf("sim: %d sources exceed population %d", c.Sources0+c.Sources1, c.N)
	}
	if 4*c.Sources0 > c.N || 4*c.Sources1 > c.N {
		return rc, fmt.Errorf("sim: source counts (%d, %d) violate s0, s1 <= n/4 with n = %d (Eq. 18)", c.Sources0, c.Sources1, c.N)
	}
	d := c.Protocol.Alphabet()
	if d < 2 {
		return rc, fmt.Errorf("sim: protocol alphabet %d < 2", d)
	}
	if c.Noise.Alphabet() != d {
		return rc, fmt.Errorf("sim: noise alphabet %d != protocol alphabet %d", c.Noise.Alphabet(), d)
	}
	// The protocol is parameterized at the level of the channel its agents
	// observe through: N's own level when it is uniform, else the reduced
	// level δ′ = f(δ), read from N·P at the looser tolerance its rounding
	// needs.
	delta, uniform := c.Noise.UniformDelta(1e-9)
	if uniform {
		rc.eff = c.Noise
	} else {
		red, err := noise.Reduce(c.Noise)
		if err != nil {
			return rc, fmt.Errorf("%w: %v", ErrNotReducible, err)
		}
		eff, err := noise.Compose(c.Noise, red.P)
		if err != nil {
			return rc, fmt.Errorf("sim: building noise channel: %w", err)
		}
		rc.artificial, rc.eff = red.P, eff
		if delta, uniform = eff.UniformDelta(1e-6); !uniform {
			delta = eff.UpperDelta()
		}
	}
	rc.env = Env{
		N:        c.N,
		H:        c.H,
		Alphabet: d,
		Delta:    delta,
		Sources:  c.Sources0 + c.Sources1,
		Bias:     c.Bias(),
	}
	switch c.Backend {
	case BackendAuto, BackendExact, BackendAggregate, BackendCounts:
	default:
		return rc, fmt.Errorf("sim: unknown backend %d", int(c.Backend))
	}
	if c.Backend == BackendCounts {
		cp, ok := c.Protocol.(CountableProtocol)
		if !ok {
			return rc, fmt.Errorf("sim: protocol %T does not implement CountableProtocol; the counts backend needs exchangeable state classes (use the per-agent engine)", c.Protocol)
		}
		if k := cp.NumStates(rc.env); k < 1 {
			return rc, fmt.Errorf("sim: countable protocol reports %d state classes", k)
		}
	}
	if c.Topology != nil {
		if c.Topology.N() != c.N {
			return rc, fmt.Errorf("sim: topology has %d vertices, population has %d", c.Topology.N(), c.N)
		}
		if c.Topology.MinDegree() < 1 {
			return rc, errors.New("sim: topology has an isolated vertex; every agent needs at least one neighbor to sample")
		}
		if c.Backend == BackendCounts {
			return rc, errors.New("sim: the counts backend requires the complete graph; use the per-agent engine with a topology")
		}
	}
	if c.MaxRounds < 0 {
		return rc, fmt.Errorf("sim: negative MaxRounds %d", c.MaxRounds)
	}
	if c.StabilityWindow < 0 {
		return rc, fmt.Errorf("sim: negative StabilityWindow %d", c.StabilityWindow)
	}
	// A protocol that sizes its own runs fills a zero window, and a zero
	// budget with it. If it cannot size this one, its Check says why below.
	rc.window, rc.last = c.StabilityWindow, c.MaxRounds
	if b, ok := c.Protocol.(runBounds); ok && rc.window == 0 {
		if window, last, err := b.RunBounds(rc.env); err == nil {
			rc.window = window
			if rc.last == 0 {
				rc.last = last
			}
		}
	}
	if rc.last > 0 && rc.window > rc.last {
		return rc, fmt.Errorf("sim: StabilityWindow %d exceeds MaxRounds %d; the run can never converge", rc.window, rc.last)
	}
	if rc.last == 0 {
		rc.last = defaultMaxRounds(c.N)
	}
	rc.window = max(rc.window, 1)
	if c.Faults != nil {
		if err := c.Faults.Validate(d); err != nil {
			return rc, err
		}
		if c.Backend == BackendCounts {
			for i := range c.Faults.Events {
				if kind := c.Faults.Events[i].Kind; kind == faults.KindCrash || kind == faults.KindChurn {
					return rc, fmt.Errorf("sim: the counts backend tracks no individual agents, so it cannot %v (event %d); use the per-agent engine", kind, i)
				}
			}
		}
	}
	if p, ok := c.Protocol.(interface{ Check(Env) error }); ok {
		if err := p.Check(rc.env); err != nil {
			return rc, err
		}
	}
	if f, ok := c.Protocol.(Finite); ok {
		if rc.finite = f.Rounds(rc.env); rc.finite < 1 {
			return rc, fmt.Errorf("sim: finite protocol reports %d rounds", rc.finite)
		}
	}
	return rc, nil
}

// Validate checks the configuration, returning a descriptive error for the
// first violated constraint; a non-uniform Noise the Theorem 8 reduction
// cannot handle fails with ErrNotReducible. A protocol with a Check(Env)
// error method (SF and SSF) is asked whether the environment is in its
// domain, and a Finite protocol's schedule must last at least one round.
func (c *Config) Validate() error {
	_, err := c.resolve()
	return err
}

// CorrectOpinion returns the plurality preference among sources.
func (c *Config) CorrectOpinion() int {
	if c.Sources1 > c.Sources0 {
		return 1
	}
	return 0
}

// Bias returns s = |s1 − s0|.
func (c *Config) Bias() int {
	b := c.Sources1 - c.Sources0
	if b < 0 {
		return -b
	}
	return b
}

// Env returns the environment handed to agents. The uniform noise level is
// taken from the channel the agents observe through: the noise matrix's own
// level when it is δ-uniform, else the Theorem 8 level f(δ) of N·P. Env is
// the zero value when the configuration is too malformed to derive a
// channel from (see Validate).
func (c *Config) Env() Env {
	rc, _ := c.resolve()
	return rc.env
}

// defaultMaxRounds caps runaway simulations. Linear-in-n protocols need
// O(n log n / h) rounds; this allows a generous multiple.
func defaultMaxRounds(n int) int {
	r := 200*n + 10000
	if r < 0 || r > math.MaxInt32 {
		return math.MaxInt32
	}
	return r
}
