package noisypull

import (
	"context"
	"errors"
	"fmt"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// Re-exported model types. These aliases are the library's public surface;
// the implementations live in internal packages.
type (
	// NoiseMatrix is a validated stochastic noise matrix over the message
	// alphabet.
	NoiseMatrix = noise.Matrix
	// Reduction is the Theorem 8 artificial-noise decomposition.
	Reduction = noise.Reduction
	// Protocol builds per-agent state machines for the simulator.
	Protocol = sim.Protocol
	// CountableProtocol extends Protocol with the state-class interface the
	// counts backend needs (BackendCounts); the three baselines implement
	// it. Its CorruptRow is the backend's one corruption rule, for
	// Config.Corruption and corrupt faults alike. Every type its methods
	// take is re-exported here, so code outside this module can implement
	// it (NewAgent may return a baseline's Agents: the counts backend never
	// builds them).
	CountableProtocol = sim.CountableProtocol
	// Agent is one protocol instance inside a simulation.
	Agent = sim.Agent
	// Role describes an agent's source status.
	Role = sim.Role
	// Env carries the designer-known system parameters.
	Env = sim.Env
	// Result reports a finished run.
	Result = sim.Result
	// Backend selects the engine: BackendCounts, or the per-agent engine
	// under any other label.
	Backend = sim.Backend
	// CorruptionMode selects the self-stabilization adversary.
	CorruptionMode = sim.CorruptionMode
	// FaultSchedule is a deterministic runtime fault-injection schedule
	// (mid-run corruption, crashes, churn, noise swaps and drifts) attached
	// to Config.Faults.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// FaultKind identifies a fault class.
	FaultKind = faults.Kind
	// FaultRecord is the per-fault telemetry in Result.Faults: the applied
	// round, agents affected, and the recovery round (first all-correct
	// round at or after the hit; 0 = never recovered).
	FaultRecord = faults.Record
	// SFOption customizes the Source Filter protocol.
	SFOption = protocol.SFOption
	// SSFOption customizes the Self-stabilizing Source Filter protocol.
	SSFOption = protocol.SSFOption
	// SourceFilter is the SF protocol of Theorem 4 (Algorithm 1).
	SourceFilter = protocol.SF
	// SelfStabilizing is the SSF protocol of Theorem 5 (Algorithm 2).
	SelfStabilizing = protocol.SSF
)

// Re-exported enumeration values.
const (
	// BackendAuto selects the per-agent engine: every agent keeps its own
	// state, and each round draws its h observations from the round's law.
	BackendAuto = sim.BackendAuto
	// BackendExact and BackendAggregate are older names of the per-agent
	// engine; they run exactly what BackendAuto runs.
	BackendExact     = sim.BackendExact
	BackendAggregate = sim.BackendAggregate
	// BackendCounts advances the population as state-class counts; per-round
	// cost is independent of n. Requires a CountableProtocol and the
	// complete graph.
	BackendCounts = sim.BackendCounts

	CorruptNone           = sim.CorruptNone
	CorruptWrongConsensus = sim.CorruptWrongConsensus
	CorruptRandom         = sim.CorruptRandom

	// FaultCorrupt re-corrupts a fraction of agents mid-run.
	FaultCorrupt = faults.KindCorrupt
	// FaultCrash freezes a fraction of agents for a fixed interval.
	FaultCrash = faults.KindCrash
	// FaultChurn replaces a fraction of non-sources with fresh agents.
	FaultChurn = faults.KindChurn
	// FaultNoiseSwap replaces the communication noise matrix.
	FaultNoiseSwap = faults.KindNoiseSwap
	// FaultNoiseDrift moves the noise level linearly to a target over a
	// number of rounds.
	FaultNoiseDrift = faults.KindNoiseDrift
)

// Protocol option constructors, re-exported from the protocol package.
var (
	// WithSFConstant sets the c1 constant of Eq. (19).
	WithSFConstant = protocol.WithSFConstant
	// WithSFSampleBudget overrides SF's per-phase sample budget m.
	WithSFSampleBudget = protocol.WithSFSampleBudget
	// WithSFBoostWindow sets the boosting sub-phase message quota numerator.
	WithSFBoostWindow = protocol.WithSFBoostWindow
	// WithSFBoostSubPhases sets the number of boosting sub-phases per ln n.
	WithSFBoostSubPhases = protocol.WithSFBoostSubPhases
	// WithSSFConstant sets the c1 constant of Eq. (30).
	WithSSFConstant = protocol.WithSSFConstant
	// WithSSFUpdateQuota overrides SSF's memory quota m.
	WithSSFUpdateQuota = protocol.WithSSFUpdateQuota
)

// NewSourceFilter returns the Source Filter protocol (Algorithm 1,
// Theorem 4). It communicates with the 2-symbol alphabet {0,1}, assumes a
// simultaneous start, and runs for a fixed number of rounds determined by
// the system parameters.
func NewSourceFilter(opts ...SFOption) *SourceFilter {
	return protocol.NewSF(opts...)
}

// NewSelfStabilizing returns the Self-stabilizing Source Filter protocol
// (Algorithm 2, Theorem 5). It communicates with the 4-symbol alphabet
// {0,1}² and tolerates arbitrary corruption of initial agent state.
func NewSelfStabilizing(opts ...SSFOption) *SelfStabilizing {
	return protocol.NewSSF(opts...)
}

// Baseline protocols for comparison (see package protocol).
var (
	// VoterBaseline is PULL(h) voter dynamics with zealot sources.
	VoterBaseline Protocol = protocol.Voter{}
	// MajorityBaseline is per-round h-majority dynamics with zealot sources.
	MajorityBaseline Protocol = protocol.MajorityRule{}
	// TrustBitBaseline is the naive designated-source-bit cascade.
	TrustBitBaseline Protocol = protocol.TrustBit{}
)

// UniformNoise returns the δ-uniform noise matrix on an alphabet of size d
// (Definition 1).
func UniformNoise(d int, delta float64) (*NoiseMatrix, error) {
	return noise.Uniform(d, delta)
}

// AsymmetricNoise returns the binary channel that flips 0→1 with
// probability p01 and 1→0 with probability p10.
func AsymmetricNoise(p01, p10 float64) (*NoiseMatrix, error) {
	return noise.TwoSymbol(p01, p10)
}

// NoiseFromRows validates an arbitrary stochastic matrix as a noise matrix.
func NoiseFromRows(rows [][]float64) (*NoiseMatrix, error) {
	return noise.FromRows(rows)
}

// ReduceNoise computes the Theorem 8 artificial-noise reduction for a
// δ-upper-bounded matrix: a stochastic P with N·P exactly f(δ)-uniform.
func ReduceNoise(n *NoiseMatrix) (*Reduction, error) {
	return noise.Reduce(n)
}

// F is the artificial-noise level function f(δ) of Definition 7 for an
// alphabet of size d.
func F(delta float64, d int) float64 {
	return noise.F(delta, d)
}

// Config specifies one simulated execution of the noisy PULL(h) model. The
// zero value is not runnable: N, H, sources, Noise, and Protocol are
// required.
type Config struct {
	// N is the population size.
	N int
	// H is the number of agents sampled (with replacement) per round.
	H int
	// Sources1 and Sources0 are the source counts preferring 1 and 0; they
	// must differ, and each must be at most N/4.
	Sources1, Sources0 int
	// Noise is the communication channel. If it is not δ-uniform, Run
	// applies the Theorem 8 reduction automatically (agents add artificial
	// noise P and the protocol is parameterized at δ′ = f(δ)).
	Noise *NoiseMatrix
	// Protocol is the agent protocol (NewSourceFilter, NewSelfStabilizing,
	// a baseline, or a custom implementation).
	Protocol Protocol
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64
	// Backend selects the engine: BackendCounts, or the per-agent engine
	// (BackendAuto, the default, or its older names BackendExact and
	// BackendAggregate).
	Backend Backend
	// MaxRounds caps the run for non-terminating protocols (0 = generous
	// default).
	MaxRounds int
	// StabilityWindow is the number of consecutive all-correct rounds a
	// non-terminating protocol must hold to count as converged (0 = 1; for
	// SSF, Run defaults it to two full update cycles).
	StabilityWindow int
	// Corruption selects adversarial initialization of agent state.
	Corruption CorruptionMode
	// Faults, if non-nil, schedules runtime fault injection (mid-run
	// corruption, crashes, churn, noise swaps and drifts), deterministic in
	// Seed; telemetry lands in Result.Faults. The counts backend supports
	// noise events and uniform transient corruption only.
	Faults *FaultSchedule
	// Topology, if non-nil, restricts each agent's sampling to its graph
	// neighborhood (requires the per-agent engine, not BackendCounts; see
	// RingTopology and friends). Nil means the paper's complete-graph model.
	Topology *Topology
	// Workers bounds simulation goroutines (0 = GOMAXPROCS).
	Workers int
	// TrackHistory records per-round correct-opinion counts in the Result.
	TrackHistory bool
	// OnRound, if set, observes each round's correct-opinion count.
	OnRound func(round, correct int)
	// OnFault, if set, observes each applied fault as it fires.
	OnFault func(FaultRecord)
}

// ErrNotReducible is returned when the supplied noise matrix is too noisy
// for the Theorem 8 reduction (its upper-bound level is not below 1/|Σ|).
var ErrNotReducible = errors.New("noisypull: noise matrix is not reducible to uniform (delta >= 1/|alphabet|)")

// Run executes the configured simulation and reports the outcome.
//
// If cfg.Noise is not δ-uniform, Run computes the artificial-noise matrix
// P = N⁻¹·T of Theorem 8 and has every agent apply it to each received
// message, so protocols always operate under exactly uniform noise — the
// setting their guarantees are stated in.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per simulated round, so cancelling it stops the run within one round
// (rather than at MaxRounds) and returns ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	runner, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	return runner.RunContext(ctx)
}

// RunBatch executes one independent trial per seed and returns the results
// in seed order. Runners are constructed once and rewound between trials, so
// population construction, channel composition (including the Theorem 8
// reduction), and all simulation scratch are amortized across the batch —
// the per-trial overhead of a large batch is just re-deriving agent state.
//
// Trials run concurrently on cfg.Workers goroutines (0 = GOMAXPROCS), each
// simulating single-threaded, so total CPU use stays at the configured
// level. Every trial's result depends only on its seed: RunBatch(cfg, seeds)
// is element-wise identical to calling Run with each seed, for any Workers.
// cfg.Seed and cfg.OnRound are ignored (use TrackHistory for per-trial
// trajectories).
func RunBatch(cfg Config, seeds []uint64) ([]*Result, error) {
	return RunBatchContext(context.Background(), cfg, seeds)
}

// RunBatchContext is RunBatch with cooperative cancellation: once ctx is
// cancelled no further seeds are launched, in-flight trials stop within one
// round, and the call returns ctx.Err(). A panic in protocol or engine code
// fails the batch with an error instead of ending the process.
func RunBatchContext(ctx context.Context, cfg Config, seeds []uint64) ([]*Result, error) {
	cfg.OnRound = nil
	cfg.OnFault = nil
	sc, err := cfg.toSim()
	if err != nil {
		return nil, err
	}
	return sim.RunBatchContext(ctx, sc, seeds, cfg.Workers)
}

// Runner is a reusable simulation executor: construction pays for population
// instantiation, channel composition (including the Theorem 8 reduction),
// and all per-round scratch once, and Reset rewinds it for further seeds
// over the same allocations — the mechanism behind RunBatch, exposed so
// long-lived harnesses (for example the simd job scheduler) can reuse
// runners across requests.
type Runner struct {
	r *sim.Runner
}

// NewRunner validates cfg and provisions a reusable runner for it. The
// caller should Close it when done (a finalizer reclaims forgotten ones).
func NewRunner(cfg Config) (*Runner, error) {
	sc, err := cfg.toSim()
	if err != nil {
		return nil, err
	}
	r, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	return &Runner{r: r}, nil
}

// Run executes the runner's configured simulation. A Runner runs once per
// NewRunner or Reset; calling Run again without a Reset is an error.
func (r *Runner) Run() (*Result, error) { return r.r.Run() }

// RunContext is Run with cooperative cancellation, checked once per round.
// A cancelled runner remains reusable: Reset rewinds it to a state
// bit-identical to a freshly constructed one.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) { return r.r.RunContext(ctx) }

// Reset rewinds the runner under a new seed, reusing its allocations and
// worker pool; the subsequent Run is bit-identical to a fresh runner's.
func (r *Runner) Reset(seed uint64) { r.r.Reset(seed) }

// SetOnRound replaces the per-round observation hook (round index and
// correct-opinion count). It must not be called while a Run is in progress.
func (r *Runner) SetOnRound(fn func(round, correct int)) { r.r.SetOnRound(fn) }

// SetOnFault replaces the fault-application hook, under the same rules as
// SetOnRound.
func (r *Runner) SetOnFault(fn func(FaultRecord)) { r.r.SetOnFault(fn) }

// SetCheckpoint configures periodic checkpointing: every `every` rounds the
// runner snapshots itself and hands the encoded state to fn. every <= 0 or a
// nil fn disables checkpointing. Must not be called while a Run is in
// progress.
func (r *Runner) SetCheckpoint(every int, fn func(round int, snapshot []byte)) {
	r.r.SetCheckpoint(every, fn)
}

// Snapshot serializes the runner's complete resumable state — population,
// RNG streams, round bookkeeping, and pending-fault position — into a
// versioned, checksummed binary blob. Valid between runs, from OnRound /
// checkpoint hooks, and after a cancelled run; Restore on an identically
// configured runner then continues the run bit-identically.
func (r *Runner) Snapshot() ([]byte, error) { return r.r.Snapshot() }

// Restore rewinds the runner to a state previously captured by Snapshot on
// an identically configured runner (same shape, seed, protocol, noise, and
// fault schedule — enforced by an embedded fingerprint). The subsequent
// Run continues from the snapshot's round and is bit-identical to the
// uninterrupted run.
func (r *Runner) Restore(data []byte) error { return r.r.Restore(data) }

// Close releases the runner's worker pool. Idempotent.
func (r *Runner) Close() { r.r.Close() }

// toSim translates the public Config into a validated engine
// configuration, performing automatic noise reduction and SSF stability
// defaulting. Validation includes the protocol's own applicability check
// (SF and SSF expose Check).
func (cfg Config) toSim() (sim.Config, error) {
	if cfg.Noise == nil {
		return sim.Config{}, errors.New("noisypull: Config.Noise is required")
	}
	if cfg.Protocol == nil {
		return sim.Config{}, errors.New("noisypull: Config.Protocol is required")
	}
	sc := sim.Config{
		N:               cfg.N,
		H:               cfg.H,
		Sources1:        cfg.Sources1,
		Sources0:        cfg.Sources0,
		Noise:           cfg.Noise,
		Protocol:        cfg.Protocol,
		Seed:            cfg.Seed,
		Backend:         cfg.Backend,
		MaxRounds:       cfg.MaxRounds,
		StabilityWindow: cfg.StabilityWindow,
		Corruption:      cfg.Corruption,
		Faults:          cfg.Faults,
		Topology:        cfg.Topology,
		Workers:         cfg.Workers,
		TrackHistory:    cfg.TrackHistory,
		OnRound:         cfg.OnRound,
		OnFault:         cfg.OnFault,
	}
	if _, uniform := cfg.Noise.UniformDelta(1e-9); !uniform {
		red, err := noise.Reduce(cfg.Noise)
		if err != nil {
			return sim.Config{}, fmt.Errorf("%w: %v", ErrNotReducible, err)
		}
		sc.Artificial = red.P
	}
	// Default the stability window of SSF runs to two update cycles so
	// "converged" means surviving memory flushes.
	if ssf, ok := cfg.Protocol.(*SelfStabilizing); ok && cfg.StabilityWindow == 0 {
		env := sc.Env()
		if m, err := ssf.UpdateQuota(env); err == nil && cfg.H > 0 {
			sc.StabilityWindow = 2 * ((m + cfg.H - 1) / cfg.H)
			if sc.MaxRounds == 0 {
				if conv, err := ssf.ConvergenceRounds(env); err == nil {
					sc.MaxRounds = 6*conv + sc.StabilityWindow
				}
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return sim.Config{}, err
	}
	return sc, nil
}

// Check validates that the configuration is runnable — including protocol
// applicability (noise level within the protocol's domain) — without
// executing it.
func (cfg Config) Check() error {
	_, err := cfg.toSim()
	return err
}

// NoiseEstimator accumulates (displayed, observed) calibration pairs and
// produces the maximum-likelihood noise matrix — for deployments where the
// channel is not known a priori (the paper assumes agents know N; this is
// the practical complement).
type NoiseEstimator = noise.Estimator

// NewNoiseEstimator returns an estimator for an alphabet of size d.
func NewNoiseEstimator(d int) (*NoiseEstimator, error) {
	return noise.NewEstimator(d)
}

// RunAsync executes the configured simulation under a fully asynchronous
// activation schedule: one uniformly random agent activates at a time, and
// time is reported in parallel rounds (n activations). There are no common
// rounds, so protocols that rely on a shared clock (SF) degrade, while SSF's
// guarantees carry over. Workers is ignored (the schedule is sequential);
// the same automatic Theorem 8 noise reduction as Run applies. Fault
// schedules fire at common rounds, so RunAsync rejects them.
func RunAsync(cfg Config) (*Result, error) {
	sc, err := cfg.toSim()
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewAsync(sc)
	if err != nil {
		return nil, err
	}
	return runner.Run()
}

// Topology is an undirected communication graph restricting which agents
// can be sampled (nil Topology in Config means the paper's complete-graph
// model).
type Topology = graph.Graph

// RingTopology returns the circulant graph where every agent is adjacent
// to its k nearest neighbors on each side.
func RingTopology(n, k int) (*Topology, error) {
	return graph.Ring(n, k)
}

// RandomRegularTopology returns a random d-regular simple graph (an
// expander w.h.p. for d ≥ 3). It needs n·d even, 1 ≤ d < n and
// n·d ≤ math.MaxInt32. Building takes O(n·d) time and about 12·n·d bytes
// at its peak, 4·n·d of which the returned graph keeps.
func RandomRegularTopology(n, d int, seed uint64) (*Topology, error) {
	return graph.RandomRegular(n, d, seed)
}

// ErdosRenyiTopology returns a G(n, p) random graph.
func ErdosRenyiTopology(n int, p float64, seed uint64) (*Topology, error) {
	return graph.ErdosRenyi(n, p, seed)
}
