package noisypull

import (
	"context"

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
	// Protocol is a protocol's per-agent kernel: the built-in protocols
	// (NewSourceFilter, NewSelfStabilizing, the baselines) implement it.
	Protocol = sim.Protocol
	// CountableProtocol extends Protocol with the state-class interface the
	// counts backend needs (BackendCounts); the three baselines implement
	// it. Its CorruptRow is the backend's one corruption rule, for
	// Config.Corruption and corrupt faults alike. Every type its own
	// methods take is re-exported here, so code outside this module
	// implements it by embedding a built-in Protocol for the kernel, which
	// the counts backend never builds, and adding the class methods.
	CountableProtocol = sim.CountableProtocol
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

// Config specifies one simulated execution of the noisy PULL(h) model: it
// is the engine's configuration, and Validate checks it — protocol
// applicability (noise level within the protocol's domain) included —
// without running it. The zero value is not runnable: N, H, sources, Noise,
// and Protocol are required.
type Config = sim.Config

// ErrNotReducible is returned when the supplied noise matrix is too noisy
// for the Theorem 8 reduction (its upper-bound level is not below 1/|Σ|).
var ErrNotReducible = sim.ErrNotReducible

// Run executes the configured simulation and reports the outcome.
//
// If cfg.Noise is not δ-uniform, the engine derives the artificial-noise
// matrix P = N⁻¹·T of Theorem 8 and has every agent apply it to each
// received message, so protocols always operate under exactly uniform
// noise — the setting their guarantees are stated in.
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
// cfg.Seed is ignored (use TrackHistory for per-trial trajectories).
func RunBatch(cfg Config, seeds []uint64) ([]*Result, error) {
	return RunBatchContext(context.Background(), cfg, seeds)
}

// RunBatchContext is RunBatch with cooperative cancellation: once ctx is
// cancelled no further seeds are launched, in-flight trials stop within one
// round, and the call returns ctx.Err(). A panic in protocol or engine code
// fails the batch with an error instead of ending the process.
func RunBatchContext(ctx context.Context, cfg Config, seeds []uint64) ([]*Result, error) {
	return sim.RunBatchContext(ctx, cfg, seeds, cfg.Workers)
}

// Runner is a reusable simulation executor: construction pays for population
// instantiation, channel composition (including the Theorem 8 reduction),
// and all per-round scratch once, and Reset rewinds it for further seeds
// over the same allocations — the mechanism behind RunBatch, exposed so
// long-lived harnesses (for example the simd job scheduler) can reuse
// runners across requests. It is the engine's runner: Snapshot and Restore
// checkpoint it, SetOnRound, SetOnFault and SetCheckpoint set its hooks, and
// ClassCounts, AgentState, AgentWeakOpinion and Env read its population and
// environment.
type Runner = sim.Runner

// NewRunner validates cfg and provisions a reusable runner for it. The
// caller should Close it when done (a finalizer reclaims forgotten ones).
func NewRunner(cfg Config) (*Runner, error) {
	return sim.New(cfg)
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
	runner, err := sim.NewAsync(cfg)
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
// n·d ≤ math.MaxInt32. A dense shape (2d > n−1) is the complement of the
// (n−1−d)-regular graph built under the same seed. Building takes O(n·d)
// time and about 12·n·d bytes at its peak, 4·n·d of which the returned
// graph keeps.
func RandomRegularTopology(n, d int, seed uint64) (*Topology, error) {
	return graph.RandomRegular(n, d, seed)
}

// ErdosRenyiTopology returns a G(n, p) random graph.
func ErdosRenyiTopology(n int, p float64, seed uint64) (*Topology, error) {
	return graph.ErdosRenyi(n, p, seed)
}
