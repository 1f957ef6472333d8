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
// The engine runs the schedule on its own round loop, one round being n
// activations, under the stopping rule Config resolves, except that a
// finite protocol runs to the round budget with the usual stability-window
// semantics rather than its synchronous schedule, since a global schedule
// has no meaning here. Fault schedules and checkpoints need round barriers,
// so NewAsync rejects fault schedules, and AsyncRunner exposes none of
// Runner's checkpoint or fault-hook methods.
type AsyncRunner struct {
	eng *Runner
}

// asyncSched is the state of the asynchronous schedule on a Runner.
type asyncSched struct {
	// stream picks the agent and feeds its draws.
	stream rng.Stream
	// The runner's counts hold the live display counts on the complete
	// graph; lawStale marks a display change since its vecObs was built
	// from them.
	lawStale bool
	correct  int // number of agents currently holding the correct opinion
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
	eng.finite = 0
	eng.async = new(asyncSched)
	eng.asyncStart()
	return &AsyncRunner{eng: eng}, nil
}

// Reset rewinds the runner to a freshly constructed state under the given
// seed, reusing its allocations — the async analogue of Runner.Reset. A
// Reset runner is bit-identical to one built with NewAsync under the same
// configuration and seed.
func (r *AsyncRunner) Reset(seed uint64) { r.eng.Reset(seed) }

// Close releases the engine, like Runner.Close. Idempotent.
func (r *AsyncRunner) Close() { r.eng.Close() }

// SetOnRound sets the per-round observation hook, as Runner.SetOnRound
// does: after every parallel round, fn gets the round index and the number
// of agents holding the correct opinion.
func (r *AsyncRunner) SetOnRound(fn func(round, correct int)) { r.eng.onRound = fn }

// Env returns the agents' environment.
func (r *AsyncRunner) Env() Env { return r.eng.env }

// Run executes activations until the population has been all-correct for
// the stability window or the round budget of parallel rounds elapses. An
// AsyncRunner runs once per NewAsync or Reset.
func (r *AsyncRunner) Run() (*Result, error) { return r.eng.Run() }

// RunContext is Run with cooperative cancellation, checked once per parallel
// round (n activations); a cancelled run returns ctx.Err().
func (r *AsyncRunner) RunContext(ctx context.Context) (*Result, error) {
	return r.eng.RunContext(ctx)
}

// asyncStart reseeds the schedule stream from the run seed and takes the
// round-0 display counts (or publishes the displays, on a graph) and the
// correct-opinion tally. initPopulation calls it after building the
// population, so a Reset runner replays a fresh one.
func (r *Runner) asyncStart() {
	a := r.async
	a.stream.Reseed(rng.DeriveSeed(r.cfg.Seed, ^uint64(0)))
	r.vecCountRange(0)
	if r.vecNbr != nil {
		r.vecNbr.resetRound(r.noiseEpoch)
		r.vecObs = VecObs{H: r.cfg.H, nbr: r.vecNbr}
	} else {
		copy(r.counts, r.scratch[0].shard)
		a.lawStale = true
	}
	a.correct = 0
	for i := 0; i < r.cfg.N; i++ {
		if _, op := r.pop.State(i); op == r.correct {
			a.correct++
		}
	}
}

// asyncRound runs one parallel round, n activations of uniformly random
// agents, and returns the number of agents holding the correct opinion.
func (r *Runner) asyncRound() int {
	n := r.cfg.N
	for step := 0; step < n; step++ {
		r.activate(r.async.stream.Intn(n))
	}
	return r.async.correct
}

// activate steps agent i against the live displays and folds its new
// display and opinion into the counts and the correct-opinion tally.
func (r *Runner) activate(i int) {
	a := r.async
	if a.lawStale {
		r.completeLaw(nil, 0)
		a.lawStale = false
	}
	was, wasOp := r.pop.State(i)
	r.pop.StepRange(i, i+1, &r.vecObs, &a.stream)
	sym, op := r.pop.State(i)
	if sym != was {
		if r.vecNbr != nil {
			r.vecNbr.displays[i] = uint8(sym)
		} else {
			r.counts[was]--
			r.counts[sym]++
			a.lawStale = true
		}
	}
	if right := op == r.correct; right != (wasOp == r.correct) {
		if right {
			a.correct++
		} else {
			a.correct--
		}
	}
}
