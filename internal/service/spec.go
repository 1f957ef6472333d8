package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"noisypull"
)

// JobSpec is the wire format of a simulation job: the JSON body of
// POST /v1/jobs. It mirrors the scalar surface of noisypull.Config, naming
// protocols, channels and corruption modes by string, so a job is fully
// described by data — no Go values cross the API. It is also the
// vocabulary of the cmd/noisypull flags, which fill one and Build it.
type JobSpec struct {
	// N is the population size.
	N int `json:"n"`
	// H is the per-round sample size.
	H int `json:"h"`
	// Sources1 and Sources0 are the source counts preferring 1 and 0.
	Sources1 int `json:"sources1"`
	Sources0 int `json:"sources0"`
	// Delta is the uniform noise level; ignored when P01/P10 are set.
	Delta float64 `json:"delta,omitempty"`
	// P01 and P10, when both set, select the asymmetric binary channel
	// (reduced automatically via Theorem 8).
	P01 *float64 `json:"p01,omitempty"`
	P10 *float64 `json:"p10,omitempty"`
	// Protocol is one of sf, ssf, voter, majority, trustbit.
	Protocol string `json:"protocol"`
	// C1 overrides the protocol constant c1 (0 = calibrated default).
	C1 float64 `json:"c1,omitempty"`
	// MaxRounds caps non-terminating protocols (0 = engine default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// StabilityWindow is the convergence window (0 = protocol default).
	StabilityWindow int `json:"stability_window,omitempty"`
	// Corruption is the adversarial initialization: none, wrong, random.
	Corruption string `json:"corruption,omitempty"`
	// Backend selects the engine: counts (baseline protocols only; rejected
	// at submission otherwise), or the per-agent engine under auto (the
	// default) or its older names exact and aggregate.
	Backend string `json:"backend,omitempty"`
	// Seeds lists the independent trials to run, in order, none repeated.
	// Empty means the single seed 1.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Faults optionally schedules runtime fault injection; each entry maps
	// to one noisypull.FaultEvent. Invalid schedules are rejected at
	// submission time (HTTP 400).
	Faults []FaultSpec `json:"faults,omitempty"`
	// MaxWallMS is the job's wall-clock budget in milliseconds, covering all
	// its seeds. A job exceeding it is killed by the watchdog and finalized
	// as failed. 0 means unlimited.
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
	// CheckpointRounds is the engine-checkpoint cadence: every this many
	// rounds, the running trial's resumable state is journaled, bounding the
	// work a crash can lose. 0 inherits the service default (off unless the
	// daemon sets one); checkpoints are only written when the daemon runs
	// with a journal. -1 disables checkpointing even against a service
	// default.
	CheckpointRounds int `json:"checkpoint_rounds,omitempty"`
}

// FaultSpec is the wire form of one scheduled fault event.
type FaultSpec struct {
	// Kind is one of corrupt, crash, churn, noise (matrix swap), drift
	// (gradual noise-level ramp).
	Kind string `json:"kind"`
	// Round fires the event at a fixed round; alternatively WindowLo/Hi
	// draw the fire round uniformly (seed-deterministically) from a window.
	Round    int `json:"round,omitempty"`
	WindowLo int `json:"window_lo,omitempty"`
	WindowHi int `json:"window_hi,omitempty"`
	// Fraction is the per-agent hit probability (corrupt, crash, churn).
	Fraction float64 `json:"fraction,omitempty"`
	// Mode is the corruption flavor for corrupt/churn: wrong or random.
	Mode string `json:"mode,omitempty"`
	// Duration is the crash length in rounds.
	Duration int `json:"duration,omitempty"`
	// Delta is the uniform noise level a noise swap installs, or the drift
	// target level.
	Delta float64 `json:"delta,omitempty"`
	// DriftRounds is the ramp length of a drift.
	DriftRounds int `json:"drift_rounds,omitempty"`
}

// shapeKey is the comparable identity of a spec up to its seeds: two jobs
// with equal shapes produce engine configurations that differ only in the
// seed, so a scheduler worker's cached runner can be rewound with Reset
// instead of rebuilt (the RunBatch reuse pattern, extended across jobs).
type shapeKey struct {
	n, h, s1, s0          int
	delta, p01, p10, c1   float64
	asym                  bool
	protocol, corruption  string
	backend               string
	maxRounds, stabilityW int
	faults                string
}

func (s *JobSpec) shape() shapeKey {
	k := shapeKey{
		n: s.N, h: s.H, s1: s.Sources1, s0: s.Sources0,
		delta: s.Delta, c1: s.C1,
		protocol: s.Protocol, corruption: s.Corruption, backend: s.Backend,
		maxRounds: s.MaxRounds, stabilityW: s.StabilityWindow,
		faults: faultFingerprint(s.Faults),
	}
	if s.P01 != nil && s.P10 != nil {
		k.asym, k.p01, k.p10, k.delta = true, *s.P01, *s.P10, 0
	}
	return k
}

// Fingerprint is the spec's config identity on the fleet wire: a short hex
// digest of the same shape key the scheduler leases runners by, so two specs
// share a fingerprint exactly when their engine configurations differ only
// in the seed. The coordinator keys leases by it and workers recompute it
// from the shipped spec — a mismatch (wire corruption, or a mixed-version
// fleet whose spec semantics drifted) rejects the lease instead of silently
// merging results from a different configuration.
func (s *JobSpec) Fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s.shape())))
	return hex.EncodeToString(sum[:8])
}

// faultFingerprint canonicalizes a fault schedule into a comparable string:
// equal fingerprints mean the built noisypull.FaultSchedule values are equal
// field-for-field, so a cached runner's compiled timeline depends only on
// the seed and the runner may be rewound with Reset across jobs.
func faultFingerprint(fs []FaultSpec) string {
	if len(fs) == 0 {
		return ""
	}
	return fmt.Sprintf("%+v", fs)
}

// Build compiles the spec into a validated engine configuration (Seed
// unset; the caller fills it per trial). Exported for the fleet worker,
// which executes leases outside the scheduler.
func (s *JobSpec) Build() (noisypull.Config, error) { return s.build() }

// build translates the spec into a validated noisypull.Config (Seed unset;
// the scheduler fills it per trial).
func (s *JobSpec) build() (noisypull.Config, error) {
	var zero noisypull.Config
	if s.Protocol == "" {
		return zero, fmt.Errorf("spec: protocol is required (sf, ssf, voter, majority, trustbit)")
	}

	alphabet := 2
	if s.Protocol == "ssf" || s.Protocol == "trustbit" {
		alphabet = 4
	}

	var nm *noisypull.NoiseMatrix
	var err error
	switch {
	case s.P01 != nil || s.P10 != nil:
		if s.P01 == nil || s.P10 == nil {
			return zero, fmt.Errorf("spec: set both p01 and p10 for an asymmetric channel")
		}
		if alphabet != 2 {
			return zero, fmt.Errorf("spec: p01/p10 define a binary channel; protocol %q uses alphabet 4", s.Protocol)
		}
		nm, err = noisypull.AsymmetricNoise(*s.P01, *s.P10)
	default:
		nm, err = noisypull.UniformNoise(alphabet, s.Delta)
	}
	if err != nil {
		return zero, fmt.Errorf("spec: %w", err)
	}

	var proto noisypull.Protocol
	if p, ok := testProtocols[s.Protocol]; ok {
		proto = p
		if d := p.Alphabet(); d != alphabet {
			if nm, err = noisypull.UniformNoise(d, s.Delta); err != nil {
				return zero, fmt.Errorf("spec: %w", err)
			}
			alphabet = d
		}
	}
	switch {
	case proto != nil:
	case s.Protocol == "sf":
		var opts []noisypull.SFOption
		if s.C1 > 0 {
			opts = append(opts, noisypull.WithSFConstant(s.C1))
		}
		proto = noisypull.NewSourceFilter(opts...)
	case s.Protocol == "ssf":
		var opts []noisypull.SSFOption
		if s.C1 > 0 {
			opts = append(opts, noisypull.WithSSFConstant(s.C1))
		}
		proto = noisypull.NewSelfStabilizing(opts...)
	case s.Protocol == "voter":
		proto = noisypull.VoterBaseline
	case s.Protocol == "majority":
		proto = noisypull.MajorityBaseline
	case s.Protocol == "trustbit":
		proto = noisypull.TrustBitBaseline
	default:
		return zero, fmt.Errorf("spec: unknown protocol %q", s.Protocol)
	}

	var mode noisypull.CorruptionMode
	switch s.Corruption {
	case "", "none":
		mode = noisypull.CorruptNone
	case "wrong":
		mode = noisypull.CorruptWrongConsensus
	case "random":
		mode = noisypull.CorruptRandom
	default:
		return zero, fmt.Errorf("spec: unknown corruption mode %q", s.Corruption)
	}

	backend := noisypull.BackendAuto
	switch s.Backend {
	case "", "auto", "exact", "aggregate":
	case "counts":
		// Countability is checked by cfg.Validate() below, so a spec pairing
		// the counts backend with a non-countable protocol fails here at
		// submission time (HTTP 400), not later as a failed job.
		backend = noisypull.BackendCounts
	default:
		return zero, fmt.Errorf("spec: unknown backend %q", s.Backend)
	}

	sched, err := buildFaults(s.Faults, alphabet)
	if err != nil {
		return zero, err
	}

	cfg := noisypull.Config{
		N:               s.N,
		H:               s.H,
		Sources1:        s.Sources1,
		Sources0:        s.Sources0,
		Noise:           nm,
		Protocol:        proto,
		Backend:         backend,
		Faults:          sched,
		MaxRounds:       s.MaxRounds,
		StabilityWindow: s.StabilityWindow,
		Corruption:      mode,
	}
	if s.MaxWallMS < 0 {
		return zero, fmt.Errorf("spec: negative max_wall_ms %d", s.MaxWallMS)
	}
	// A seed is a trial's identity (the journal, the merge and the fleet's
	// leases key results by it), so a list that repeats one is refused here,
	// on the local and the fleet path alike.
	seen := make(map[uint64]bool, len(s.Seeds))
	for _, seed := range s.Seeds {
		if seen[seed] {
			return zero, fmt.Errorf("spec: seed %d repeats", seed)
		}
		seen[seed] = true
	}
	if s.CheckpointRounds < -1 {
		return zero, fmt.Errorf("spec: checkpoint_rounds %d (use a cadence, 0 for the service default, or -1 for off)", s.CheckpointRounds)
	}
	if err := cfg.Validate(); err != nil {
		return zero, fmt.Errorf("spec: %w", err)
	}
	return cfg, nil
}

// buildFaults translates the wire schedule into a noisypull.FaultSchedule.
// Structural validation (windows, fractions, durations) happens in
// cfg.Validate(); only the string vocabularies and the swap-matrix
// construction are resolved here.
func buildFaults(fs []FaultSpec, alphabet int) (*noisypull.FaultSchedule, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	sched := &noisypull.FaultSchedule{Events: make([]noisypull.FaultEvent, len(fs))}
	for i, f := range fs {
		ev := noisypull.FaultEvent{
			Round:       f.Round,
			WindowLo:    f.WindowLo,
			WindowHi:    f.WindowHi,
			Fraction:    f.Fraction,
			Duration:    f.Duration,
			Delta:       f.Delta,
			DriftRounds: f.DriftRounds,
		}
		switch f.Mode {
		case "":
			ev.Corruption = noisypull.CorruptNone
		case "wrong":
			ev.Corruption = noisypull.CorruptWrongConsensus
		case "random":
			ev.Corruption = noisypull.CorruptRandom
		default:
			return nil, fmt.Errorf("spec: fault %d: unknown mode %q (wrong, random)", i, f.Mode)
		}
		switch f.Kind {
		case "corrupt":
			ev.Kind = noisypull.FaultCorrupt
		case "crash":
			ev.Kind = noisypull.FaultCrash
		case "churn":
			ev.Kind = noisypull.FaultChurn
		case "noise":
			ev.Kind = noisypull.FaultNoiseSwap
			m, err := noisypull.UniformNoise(alphabet, f.Delta)
			if err != nil {
				return nil, fmt.Errorf("spec: fault %d: %w", i, err)
			}
			ev.Matrix = m
			ev.Delta = 0
		case "drift":
			ev.Kind = noisypull.FaultNoiseDrift
		default:
			return nil, fmt.Errorf("spec: fault %d: unknown kind %q (corrupt, crash, churn, noise, drift)", i, f.Kind)
		}
		sched.Events[i] = ev
	}
	return sched, nil
}

// testProtocols lets tests register protocols outside the wire vocabulary
// (e.g. a deliberately panicking one for the worker-crash regression test).
// Nil in production.
var testProtocols map[string]noisypull.Protocol

// normalize fills spec defaults (applied at submission so stored statuses
// show what actually ran).
func (s *JobSpec) normalize() {
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if s.Corruption == "" {
		s.Corruption = "none"
	}
	if s.Backend == "" {
		s.Backend = "auto"
	}
}
