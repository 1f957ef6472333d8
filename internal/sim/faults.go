package sim

import (
	"fmt"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// faultStreamID salts the seed of the fault-application stream (agent
// selection, counts-backend redistribution draws) so it is independent of
// the chunk streams, the counts-engine stream, and the schedule's own
// fire-round stream.
const faultStreamID = 0x666c745f_5eed0003 // "flt_" ++ salt

// faultState is the runtime of one Runner's fault schedule: the compiled
// timeline, the application RNG stream, crash bookkeeping, drift state, and
// the telemetry records. It is reset by initPopulation so a Reset runner
// replays faults bit-identically to a fresh one.
type faultState struct {
	timeline []faults.Timed
	cursor   int
	stream   rng.Stream

	records      []faults.Record
	firstPending int // records[firstPending:] still await recovery

	// crashUntil[i] is the first round agent i is active again (0 = never
	// crashed); frozen[i] is the symbol it keeps displaying while crashed.
	// Allocated only when the schedule contains crash events (per-agent
	// engine only; Validate rejects crashes on the counts backend).
	crashUntil []int
	frozen     []int
	// crashEnd is the latest round any crash lasts until: no agent is
	// crashed in a round at or past it, so the engine scans no crash mask
	// there. Churn may end a crash early, so it is an upper bound.
	crashEnd int

	driftOn bool
	drift   driftState
}

// driftState is one in-progress noise drift: the uniform noise level moves
// linearly from start to target over the rounds [from, from+rounds-1].
type driftState struct {
	start, target float64
	from, rounds  int
}

// newFaultState provisions the fault runtime for a validated schedule.
func newFaultState(cfg *Config) *faultState {
	fs := &faultState{}
	if cfg.Backend != BackendCounts {
		for i := range cfg.Faults.Events {
			if cfg.Faults.Events[i].Kind == faults.KindCrash {
				fs.crashUntil = make([]int, cfg.N)
				fs.frozen = make([]int, cfg.N)
				break
			}
		}
	}
	return fs
}

// reset recompiles the timeline for the current seed and clears the
// runtime state, as part of New/Reset population construction. The
// per-agent crash bookkeeping is cleared chunk by chunk on the worker pool,
// with the population (vecInitRange).
func (fs *faultState) reset(cfg *Config) {
	fs.timeline = cfg.Faults.Compile(cfg.Seed)
	fs.cursor = 0
	fs.stream.Reseed(rng.DeriveSeed(cfg.Seed, faultStreamID))
	fs.records = fs.records[:0]
	fs.firstPending = 0
	fs.driftOn = false
	fs.crashEnd = 0
}

// crashMask returns the crash bookkeeping when some agent may be crashed in
// round, and nil when none is (or the run has no fault state), so the
// engine scans the mask only while a crash is live.
func (fs *faultState) crashMask(round int) []int {
	if fs == nil || round >= fs.crashEnd {
		return nil
	}
	return fs.crashUntil
}

// markRecovered stamps every fault applied at or before an all-correct
// round with its recovery round. Recovery is population-wide, so pending
// records always form a suffix.
func (fs *faultState) markRecovered(round int) {
	for i := fs.firstPending; i < len(fs.records); i++ {
		fs.records[i].RecoveredAt = round
	}
	fs.firstPending = len(fs.records)
}

// applyFaults runs at the top of each round, before displays are
// snapshotted: it advances any in-progress noise drift and applies every
// scheduled event that fires this round, in timeline order.
func (r *Runner) applyFaults(round int) error {
	fs := r.fs
	if fs.driftOn {
		if err := r.stepDrift(round); err != nil {
			return err
		}
	}
	for fs.cursor < len(fs.timeline) && fs.timeline[fs.cursor].Round <= round {
		te := fs.timeline[fs.cursor]
		fs.cursor++
		affected, err := r.applyFault(round, te.Event)
		if err != nil {
			return fmt.Errorf("applying %v fault (event %d): %w", te.Event.Kind, te.Index, err)
		}
		rec := faults.Record{Round: round, Kind: te.Event.Kind, Index: te.Index, Affected: affected}
		fs.records = append(fs.records, rec)
		if r.onFault != nil {
			r.onFault(rec)
		}
	}
	return nil
}

func (r *Runner) applyFault(round int, ev faults.Event) (int, error) {
	switch ev.Kind {
	case faults.KindNoiseSwap:
		// A swap supersedes any drift in progress.
		r.fs.driftOn = false
		if err := r.setNoise(ev.Matrix); err != nil {
			return 0, err
		}
		return r.cfg.N, nil
	case faults.KindNoiseDrift:
		r.fs.drift = driftState{
			start:  clampDelta(currentDelta(r.curNoise), r.env.Alphabet),
			target: ev.Delta,
			from:   round,
			rounds: ev.DriftRounds,
		}
		r.fs.driftOn = true
		if err := r.stepDrift(round); err != nil {
			return 0, err
		}
		return r.cfg.N, nil
	case faults.KindCorrupt:
		if r.ce != nil {
			return r.ce.corrupt(r.env, ev.Fraction, ev.Corruption, 1-r.correct, &r.fs.stream)
		}
		return r.corruptAgents(ev), nil
	case faults.KindCrash:
		return r.crashAgents(round, ev), nil
	case faults.KindChurn:
		return r.churnAgents(ev), nil
	default:
		return 0, fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	}
}

// stepDrift advances an in-progress drift: round s of the drift uses the
// level interpolated s/rounds of the way from start to target, so the final
// drift round lands exactly on the target.
func (r *Runner) stepDrift(round int) error {
	d := &r.fs.drift
	step := round - d.from + 1
	if step < 1 {
		return nil
	}
	if step >= d.rounds {
		r.fs.driftOn = false
		step = d.rounds
	}
	delta := d.start + (d.target-d.start)*float64(step)/float64(d.rounds)
	m, err := noise.Uniform(r.env.Alphabet, delta)
	if err != nil {
		return err
	}
	return r.setNoise(m)
}

// setNoise replaces the communication matrix mid-run, recomposing the
// effective matrix with the run's artificial layer and repointing the
// mixture rows every backend reads. A sample pushed through m and then P is
// distributed exactly as one pushed through m·P, so the observation laws
// read one composed matrix instead of two.
func (r *Runner) setNoise(m *noise.Matrix) error {
	eff := m
	if r.artificial != nil {
		var err error
		if eff, err = noise.Compose(m, r.artificial); err != nil {
			return err
		}
	}
	r.curNoise = m
	for sigma := range r.effRows {
		r.effRows[sigma] = eff.Row(sigma)
	}
	r.noiseEpoch++
	return nil
}

// restoreNoise rewinds the channel to the configured matrix (New/Reset).
func (r *Runner) restoreNoise() {
	r.curNoise = r.cfg.Noise
	for sigma := range r.effRows {
		r.effRows[sigma] = r.baseEff.Row(sigma)
	}
	r.noiseEpoch++
}

// currentDelta reads the uniform noise level of the communication matrix in
// effect (its upper-bound level when it is not uniform).
func currentDelta(m *noise.Matrix) float64 {
	if d, ok := m.UniformDelta(1e-9); ok {
		return d
	}
	return m.UpperDelta()
}

// clampDelta pins a drift start level into the valid uniform range
// [0, 1/|Σ|]; an adversarially swapped non-uniform matrix can report an
// upper-bound level above what a uniform matrix can express.
func clampDelta(d float64, alphabet int) float64 {
	if hi := 1 / float64(alphabet); d > hi {
		return hi
	}
	if d < 0 {
		return 0
	}
	return d
}

// corruptAgents applies a mid-run corruption event on the per-agent
// engine: each agent is selected independently with the event's fraction
// (drawn from the fault stream, so selection is deterministic in the seed)
// and corrupted, exactly as round-0 corruption is. The corruption
// randomness comes from the fault stream too; this runs single-threaded,
// so it is deterministic and worker-independent.
func (r *Runner) corruptAgents(ev faults.Event) int {
	wrong := 1 - r.correct
	hit := 0
	for i := 0; i < r.cfg.N; i++ {
		if !r.fs.stream.Bernoulli(ev.Fraction) {
			continue
		}
		r.pop.CorruptAt(i, ev.Corruption, wrong, &r.fs.stream)
		hit++
	}
	return hit
}

// crashAgents freezes selected agents for the event's duration: they keep
// displaying the symbol they show at crash time and skip observation and
// update until they rejoin. Overlapping crashes extend, never shorten.
func (r *Runner) crashAgents(round int, ev faults.Event) int {
	fs := r.fs
	hit := 0
	until := round + ev.Duration
	for i := 0; i < r.cfg.N; i++ {
		if !fs.stream.Bernoulli(ev.Fraction) {
			continue
		}
		if fs.crashUntil[i] <= round {
			fs.frozen[i], _ = r.pop.State(i)
		}
		if until > fs.crashUntil[i] {
			fs.crashUntil[i] = until
		}
		hit++
	}
	if hit > 0 && until > fs.crashEnd {
		fs.crashEnd = until
	}
	return hit
}

// churnAgents replaces selected non-sources with agents rebuilt as at
// round 0 under the event's corruption mode, clearing any crash state — the
// slot is a new arrival. Sources are never churned: their roles are the
// ground truth the population spreads.
func (r *Runner) churnAgents(ev faults.Event) int {
	fs := r.fs
	cfg := &r.cfg
	hit := 0
	for i := cfg.Sources1 + cfg.Sources0; i < cfg.N; i++ {
		if !fs.stream.Bernoulli(ev.Fraction) {
			continue
		}
		r.pop.InitRange(i, i+1, ev.Corruption, &fs.stream)
		if fs.crashUntil != nil {
			fs.crashUntil[i] = 0
		}
		hit++
	}
	return hit
}

// attachFaults copies the fault telemetry into a finished Result.
func (r *Runner) attachFaults(res *Result) {
	if r.fs == nil {
		return
	}
	res.Faults = make([]faults.Record, len(r.fs.records))
	copy(res.Faults, r.fs.records)
}
