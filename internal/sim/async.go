package sim

import (
	"context"
	"errors"
	"fmt"

	"noisypull/internal/rng"
)

// AsyncRunner executes a simulation under an asynchronous activation
// schedule instead of synchronous rounds: at every step one uniformly
// random agent activates, observes h noisy samples of the population's
// *current* displays, and updates. Time is reported in parallel rounds
// (n activations = 1 round), making results comparable with Runner.
//
// This scheduler removes the simultaneous wake-up assumption entirely —
// agents' internal schedules advance at independent random rates. SSF
// (whose guarantees never reference a global clock) is expected to keep
// working; SF's phase structure relies on synchronized rounds, so it is
// expected to break. Experiment E17 measures exactly this contrast.
//
// The population is the synchronous engine's: a one-worker Runner builds
// the protocol's kernel with the same round-0 state as Runner under the
// same seed, and an activation of agent i steps the range [i, i+1) against
// the law of the live displays. The schedule stream picks the agent and
// feeds its draws.
//
// Finite protocols are run for MaxRounds with the usual stability-window
// semantics rather than their synchronous schedule, since a global
// schedule has no meaning here. Fault schedules and checkpoints need round
// barriers, so NewAsync rejects fault schedules and AsyncRunner takes no
// checkpoints.
type AsyncRunner struct {
	eng   *Runner
	sched rng.Stream
	// eng.counts holds the live display counts on the complete graph;
	// lawStale marks a display change since eng.vecObs was built from them.
	lawStale bool
	correct  int // number of agents currently holding the correct opinion
	ran      bool
}

// NewAsync validates cfg and instantiates the asynchronous simulation.
// Workers is ignored: asynchronous activation is inherently sequential.
func NewAsync(cfg Config) (*AsyncRunner, error) {
	switch {
	case cfg.Backend == BackendCounts:
		return nil, fmt.Errorf("sim: backend %v tracks class counts, not individual agents, and has no asynchronous schedule; use the per-agent engine", cfg.Backend)
	case cfg.Faults != nil:
		return nil, errors.New("sim: the asynchronous scheduler does not support fault schedules")
	}
	cfg.Workers = 1
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := &AsyncRunner{eng: eng}
	r.sched.Reseed(rng.DeriveSeed(cfg.Seed, ^uint64(0)))
	return r, nil
}

// Reset rewinds the runner to a freshly constructed state under the given
// seed, reusing its allocations — the async analogue of Runner.Reset. A
// Reset runner is bit-identical to one built with NewAsync under the same
// configuration and seed.
func (r *AsyncRunner) Reset(seed uint64) {
	r.eng.Reset(seed)
	r.sched.Reseed(rng.DeriveSeed(seed, ^uint64(0)))
	r.ran = false
}

// Close releases the engine, like Runner.Close. Idempotent.
func (r *AsyncRunner) Close() { r.eng.Close() }

// SetOnRound sets the per-round observation hook, as Runner.SetOnRound
// does: after every parallel round, fn gets the round index and the number
// of agents holding the correct opinion.
func (r *AsyncRunner) SetOnRound(fn func(round, correct int)) { r.eng.onRound = fn }

// Env returns the agents' environment.
func (r *AsyncRunner) Env() Env { return r.eng.env }

// Run executes activations until the population has been all-correct for
// StabilityWindow consecutive parallel rounds or MaxRounds parallel rounds
// elapse. An AsyncRunner runs once per NewAsync or Reset.
func (r *AsyncRunner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation, checked once per parallel
// round (n activations); a cancelled run returns ctx.Err().
func (r *AsyncRunner) RunContext(ctx context.Context) (*Result, error) {
	if r.ran {
		return nil, errors.New("sim: AsyncRunner.Run called again without Reset")
	}
	r.ran = true
	r.start()
	cfg := &r.eng.cfg
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds(cfg.N)
	}
	window := cfg.StabilityWindow
	if window == 0 {
		window = 1
	}
	res := &Result{CorrectOpinion: r.eng.correct}
	if cfg.TrackHistory {
		capRounds := maxRounds
		if capRounds > 1<<20 {
			capRounds = 1 << 20
		}
		res.History = make([]int, 0, capRounds)
	}

	n := cfg.N
	done := ctx.Done()
	stable := 0
	for round := 1; round <= maxRounds; round++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		for step := 0; step < n; step++ {
			r.activate(r.sched.Intn(n))
		}
		res.Rounds = round
		res.FinalCorrect = r.correct
		if cfg.TrackHistory {
			res.History = append(res.History, r.correct)
		}
		if r.eng.onRound != nil {
			r.eng.onRound(round, r.correct)
		}
		allCorrect := r.correct == n
		if allCorrect && res.FirstAllCorrect == 0 {
			res.FirstAllCorrect = round
		}
		if allCorrect {
			stable++
		} else {
			stable = 0
			res.FirstAllCorrect = 0
		}
		if stable >= window {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// start takes the round-0 display counts (or publishes the displays, on a
// graph) and the correct-opinion tally.
func (r *AsyncRunner) start() {
	e := r.eng
	e.vecCountRange(0)
	if e.vecNbr != nil {
		e.vecNbr.resetRound(e.noiseEpoch)
		e.vecObs = VecObs{H: e.cfg.H, nbr: e.vecNbr}
	} else {
		copy(e.counts, e.scratch[0].shard)
		r.lawStale = true
	}
	r.correct = 0
	for i := 0; i < e.cfg.N; i++ {
		if _, op := e.pop.State(i); op == e.correct {
			r.correct++
		}
	}
}

// activate steps agent i against the live displays and folds its new
// display and opinion into the counts and the correct-opinion tally.
func (r *AsyncRunner) activate(i int) {
	e := r.eng
	if r.lawStale {
		e.completeLaw(nil, 0)
		r.lawStale = false
	}
	was, wasOp := e.pop.State(i)
	e.pop.StepRange(i, i+1, &e.vecObs, &r.sched)
	sym, op := e.pop.State(i)
	if sym != was {
		if e.vecNbr != nil {
			e.vecNbr.displays[i] = uint8(sym)
		} else {
			e.counts[was]--
			e.counts[sym]++
			r.lawStale = true
		}
	}
	if right := op == e.correct; right != (wasOp == e.correct) {
		if right {
			r.correct++
		} else {
			r.correct--
		}
	}
}
