package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// Runner executes one configured simulation. Create it with New, run it with
// Run, and rewind it with Reset to run further trials over the same
// allocations. All buffers, RNG streams, and worker goroutines are
// provisioned at construction, so steady-state rounds allocate nothing
// and spawn nothing.
type Runner struct {
	cfg Config
	env Env
	// window, last and finite are the run's stopping rule, as Config
	// resolves it: the stability window, the round budget, and a Finite
	// protocol's schedule (0 for any other, and on the asynchronous
	// schedule, which has no global clock).
	window, last, finite int
	// artificial is the Theorem 8 matrix P the agents apply after every
	// channel (nil for a δ-uniform Noise); effRows are the rows of the
	// channel in effect composed with it.
	artificial *noise.Matrix
	effRows    [][]float64
	// noiseEpoch counts effRows repoints (noise faults, Reset); the
	// neighborhood-law memos key their validity on it.
	noiseEpoch uint64
	workers    int
	correct    int   // the correct opinion (plurality source preference)
	counts     []int // population display counts per symbol, merged at the Phase A barrier

	scratch []workerScratch
	pool    *pool
	ce      *countsEngine // non-nil iff cfg.Backend == BackendCounts
	async   *asyncSched   // non-nil on the asynchronous schedule (see NewAsync)
	ran     bool          // Run consumed since the last New/Reset

	// Per-agent engine (see vector.go): the population is the protocol's
	// kernel. chunkStreams holds one persistent RNG stream per fixed-size
	// chunk; binDist and vecObs are the per-round observation law, rebuilt
	// at every Phase A barrier.
	pop          VecPopulation
	chunkStreams []rng.Stream
	numChunks    int
	binDist      rng.BinomialDist
	multDist     rng.MultinomialDist // complete graph, alphabet > 2
	vecQ         []float64           // per-symbol observation law scratch
	vecNbr       *vecNbrObs          // graph topology: per-neighborhood laws
	vecObs       VecObs
	// guide: stepVec builds binDist's guide table every round, because
	// enough agents draw k₁ from it (complete graph, binary alphabet, at
	// least guideMinAgents agents, a kernel that draws K1).
	guide bool

	// Fault-injection runtime (nil without a schedule). Noise faults repoint
	// effRows mid-run; baseEff keeps the configured effective matrix for
	// Reset, and curNoise tracks the communication-layer matrix in effect
	// (drift starts from its level). curRound is the round being executed,
	// written at the round barrier (crash checks read it).
	fs       *faultState
	baseEff  *noise.Matrix
	curNoise *noise.Matrix
	curRound int

	// Checkpoint/resume bookkeeping, updated at every round barrier:
	// completedRound counts fully executed rounds, streak is the current
	// all-correct streak, firstAll the tentative Result.FirstAllCorrect, and
	// lastCorrect the correct-opinion count after the last completed round.
	// Snapshot reads them; Restore seeds them so a resumed run continues the
	// trajectory exactly.
	completedRound int
	streak         int
	firstAll       int
	lastCorrect    int

	// Hooks, set by SetOnRound, SetOnFault and SetCheckpoint.
	onRound         func(round, correct int)
	onFault         func(faults.Record)
	checkpointEvery int
	onCheckpoint    func(round int, snapshot []byte)
}

// workerScratch is the preallocated private state of one worker: its Phase A
// count shard (a separate allocation padded to a cache line, so parallel
// workers do not false-share) and its Phase B opinion tally.
type workerScratch struct {
	shard   []int // Phase A per-symbol display counts over the worker's chunks
	partial int   // Phase B opinion-1 count over the worker's chunks
}

// New validates cfg, instantiates the population (assigning roles and
// applying any adversarial corruption), provisions all per-round scratch and
// the persistent worker pool, and returns a ready Runner.
func New(cfg Config) (*Runner, error) {
	rc, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	env, eff := rc.env, rc.eff
	d := env.Alphabet

	if cfg.Backend == BackendCounts {
		// Countable populations carry no per-agent state: skip the
		// population, chunk streams, worker scratch, and the pool entirely, so a
		// counts runner for n = 10⁹ costs O(K + |Σ|) memory.
		ce, err := newCountsEngine(cfg.Protocol.(CountableProtocol), env)
		if err != nil {
			return nil, err
		}
		r := &Runner{
			cfg:        cfg,
			env:        env,
			window:     rc.window,
			last:       rc.last,
			finite:     rc.finite,
			artificial: rc.artificial,
			effRows:    make([][]float64, d),
			workers:    1,
			correct:    cfg.CorrectOpinion(),
			ce:         ce,
		}
		for sigma := 0; sigma < d; sigma++ {
			r.effRows[sigma] = eff.Row(sigma)
		}
		if cfg.Faults != nil {
			r.baseEff, r.curNoise = eff, cfg.Noise
			r.fs = newFaultState(&cfg)
		}
		r.initPopulation()
		return r, nil
	}

	// Workers stride whole chunks, so more workers than chunks would idle.
	numChunks := numVecChunks(cfg.N)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numChunks {
		workers = numChunks
	}

	pop := cfg.Protocol.NewVecPopulation(VecSpec{
		Env:      env,
		N:        cfg.N,
		Sources1: cfg.Sources1,
		Sources0: cfg.Sources0,
		Correct:  cfg.CorrectOpinion(),
	})

	r := &Runner{
		cfg:          cfg,
		env:          env,
		window:       rc.window,
		last:         rc.last,
		finite:       rc.finite,
		artificial:   rc.artificial,
		effRows:      make([][]float64, d),
		workers:      workers,
		correct:      cfg.CorrectOpinion(),
		counts:       make([]int, d),
		scratch:      make([]workerScratch, workers),
		pop:          pop,
		chunkStreams: make([]rng.Stream, numChunks),
		numChunks:    numChunks,
	}
	for sigma := 0; sigma < d; sigma++ {
		r.effRows[sigma] = eff.Row(sigma)
	}
	_, marginal := pop.(VecMarginalOnly)
	r.guide = d == 2 && cfg.Topology == nil && cfg.N >= guideMinAgents && !marginal
	if cfg.Topology != nil {
		// The neighborhood laws alias r.effRows, so mid-run noise faults
		// (which repoint its entries in place) propagate automatically.
		r.vecNbr = newVecNbrObs(cfg.Topology, r.effRows, d, cfg.H, numChunks)
	} else if d > 2 {
		r.vecQ = make([]float64, d)
	}
	// dPad rounds buffer lengths up to a cache line so the heavily written
	// per-worker shards of adjacent workers never share one.
	dPad := (d + 7) &^ 7
	for w := range r.scratch {
		r.scratch[w].shard = make([]int, dPad)[:d]
	}
	if cfg.Faults != nil {
		r.baseEff, r.curNoise = eff, cfg.Noise
		r.fs = newFaultState(&cfg)
	}
	if workers > 1 {
		// Started before the population is built, which runs on it.
		r.pool = newPool(workers)
		// Safety net: reclaim the pool goroutines if the caller forgets
		// Close. The workers reference only the pool (p.r is nil while
		// idle), so an abandoned Runner does become unreachable.
		runtime.SetFinalizer(r, (*Runner).Close)
	}
	r.initPopulation()
	return r, nil
}

// initPopulation reseeds every chunk stream from the run seed and rebuilds
// the population (seeded initialization and round-0 corruption included)
// on the worker pool, or the class counts on the counts backend. It is the
// shared construction path of New and Reset, so a Reset runner is
// bit-identical to a fresh one.
func (r *Runner) initPopulation() {
	cfg := &r.cfg
	r.curRound = 0
	r.completedRound, r.streak, r.firstAll, r.lastCorrect = 0, 0, 0, 0
	if r.fs != nil {
		r.fs.reset(cfg)
		r.restoreNoise()
	}
	if r.ce != nil {
		r.ce.reset(cfg, r.env, r.correct)
		return
	}
	if r.pool != nil {
		r.pool.attach(r)
		r.pool.dispatch(phaseInit)
		r.pool.detach()
	} else {
		r.vecInitRange(0)
	}
	if r.async != nil {
		r.asyncStart()
	}
}

// Reset rewinds the runner to a freshly constructed state under the given
// seed: RNG streams are re-derived, agents are rebuilt, and run bookkeeping
// is cleared, exactly as if New had been called with the same configuration
// and the new seed — but reusing the runner's allocations and worker pool.
func (r *Runner) Reset(seed uint64) {
	r.cfg.Seed = seed
	r.ran = false
	r.initPopulation()
}

// Close releases the worker pool goroutines. Calling it is optional — a GC
// finalizer performs the same cleanup when an un-Closed Runner becomes
// unreachable — but deterministic release is cheaper than waiting for the
// collector. Close is idempotent; a closed Runner must not be Run again.
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.close()
		runtime.SetFinalizer(r, nil)
	}
}

// ClassCounts returns a copy of the current per-class population counts of a
// counts-backend runner (the protocol's CountableProtocol class indexing),
// or nil for the per-agent engine.
func (r *Runner) ClassCounts() []int {
	if r.ce == nil {
		return nil
	}
	out := make([]int, len(r.ce.counts))
	copy(out, r.ce.counts)
	return out
}

// AgentState returns agent i's current display symbol and opinion. The
// counts backend materializes no individual agents and returns an error.
func (r *Runner) AgentState(i int) (display, opinion int, err error) {
	if i < 0 || i >= r.cfg.N {
		return 0, 0, fmt.Errorf("sim: agent index %d outside [0, %d)", i, r.cfg.N)
	}
	if r.pop == nil {
		return 0, 0, errors.New("sim: counts backend has no per-agent state")
	}
	display, opinion = r.pop.State(i)
	return display, opinion, nil
}

// AgentWeakOpinion returns agent i's weak opinion for populations that form
// one (the SF and SSF kernels' Ŷ; see VecWeakOpinions). ok is false when
// the index is out of range, the population exposes no weak opinion, or
// the backend has no per-agent state.
func (r *Runner) AgentWeakOpinion(i int) (weak int, ok bool) {
	if i < 0 || i >= r.cfg.N {
		return 0, false
	}
	if wp, isWeak := r.pop.(VecWeakOpinions); isWeak {
		return wp.WeakOpinionAt(i), true
	}
	return 0, false
}

// Env returns the environment the agents were built with.
func (r *Runner) Env() Env { return r.env }

// SetOnRound sets the runner's per-round observation hook: after every
// round, fn gets the round index (1-based) and the number of agents holding
// the correct opinion, on the engine's goroutine. nil removes it. It must
// not be called while a Run is in progress. Harness code that leases a
// runner across jobs (service scheduler, seed executors) uses it to repoint
// progress streaming at the current job between Reset and Run, which keeps
// it.
func (r *Runner) SetOnRound(fn func(round, correct int)) {
	r.onRound = fn
}

// SetOnFault sets the runner's fault-application hook: fn gets each
// scheduled fault as it is applied, with RecoveredAt still zero (recovery
// is only known later; see Result.Faults for the completed records). It
// follows SetOnRound's rules.
func (r *Runner) SetOnFault(fn func(faults.Record)) {
	r.onFault = fn
}

// SetCheckpoint configures periodic checkpointing: every `every` rounds the
// engine snapshots its state at the round barrier and hands the encoding to
// fn (see Snapshot/Restore). every <= 0 or a nil fn disables checkpointing.
// Checkpoints do not perturb the trajectory. fn runs on the engine's
// goroutine and owns the freshly allocated snapshot. Like SetOnRound, it
// must not be called while a Run is in progress; harness code repoints it
// between Reset and Run, which keeps it.
func (r *Runner) SetCheckpoint(every int, fn func(round int, snapshot []byte)) {
	r.checkpointEvery = every
	r.onCheckpoint = fn
}

// Run executes rounds until the protocol finishes (finite protocols), the
// population has been all-correct for the stability window (infinite
// protocols), or the round budget elapses, by the stopping rule Config
// resolves (see Config.StabilityWindow and MaxRounds). A Runner runs once
// per New or Reset; calling Run again without a Reset is an error.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per round, so a cancelled run stops within one round instead of
// running to its budget, returning ctx.Err() (context.Canceled or
// context.DeadlineExceeded). A cancelled runner stays reusable — Reset
// rewinds it to a state bit-identical to a freshly constructed one.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	if r.ran {
		return nil, errors.New("sim: Runner.Run called again without Reset")
	}
	r.ran = true
	cfg := &r.cfg
	res := &Result{CorrectOpinion: r.correct}
	if cfg.TrackHistory {
		res.History = make([]int, 0, min(r.lastRound(), 1<<20))
	}

	if r.pool != nil {
		r.pool.attach(r)
		defer r.pool.detach()
	}

	// A restored runner resumes from its snapshot's round with the streak
	// bookkeeping it carried; a fresh or Reset runner starts from zero.
	done := ctx.Done()
	stable := r.streak
	res.FirstAllCorrect = r.firstAll
	res.Rounds = r.completedRound
	res.FinalCorrect = r.lastCorrect
	if r.finite > 0 && r.completedRound == r.finite ||
		r.finite == 0 && r.completedRound > 0 && stable >= r.window {
		// Restored from a checkpoint taken at the round the run met its
		// stopping rule (the schedule's last round, or a full stability
		// window): the run is over, as it was when the checkpoint was taken.
		res.Converged = r.lastCorrect == cfg.N
		r.attachFaults(res)
		return res, nil
	}
	for round := r.completedRound + 1; round <= r.last; round++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		r.curRound = round
		if r.fs != nil {
			if err := r.applyFaults(round); err != nil {
				return nil, fmt.Errorf("sim: round %d: %w", round, err)
			}
		}
		correctCount, err := r.step()
		if err != nil {
			return nil, fmt.Errorf("sim: round %d: %w", round, err)
		}
		res.Rounds = round
		res.FinalCorrect = correctCount
		if cfg.TrackHistory {
			res.History = append(res.History, correctCount)
		}

		allCorrect := correctCount == cfg.N
		if r.fs != nil && allCorrect {
			r.fs.markRecovered(round)
		}
		if allCorrect && res.FirstAllCorrect == 0 {
			res.FirstAllCorrect = round
		}
		if allCorrect {
			stable++
		} else {
			stable = 0
			res.FirstAllCorrect = 0 // require the *final* streak for stability semantics
		}
		// Round barrier: the bookkeeping Snapshot captures is consistent from
		// here on, so the hooks below may checkpoint.
		r.completedRound, r.streak, r.firstAll, r.lastCorrect = round, stable, res.FirstAllCorrect, correctCount
		if r.onRound != nil {
			r.onRound(round, correctCount)
		}
		if r.checkpointEvery > 0 && r.onCheckpoint != nil && round%r.checkpointEvery == 0 {
			r.onCheckpoint(round, r.Snapshot())
		}

		if r.finite > 0 {
			if round == r.finite {
				res.Converged = allCorrect
				r.attachFaults(res)
				return res, nil
			}
			continue
		}
		if stable >= r.window {
			res.Converged = true
			r.attachFaults(res)
			return res, nil
		}
	}
	// Reaching here means the round budget ran out before the protocol's
	// own termination condition (finite schedule or stability window), so
	// the run did not converge; res.Converged keeps its zero value.
	r.attachFaults(res)
	return res, nil
}

// lastRound is the last round a run can reach: the budget, or a finite
// schedule when that is shorter.
func (r *Runner) lastRound() int {
	if r.finite > 0 {
		return min(r.last, r.finite)
	}
	return r.last
}

// step executes one round (synchronous, or n activations on the
// asynchronous schedule) and returns the number of agents holding the
// correct opinion at its end.
func (r *Runner) step() (int, error) {
	if r.ce != nil {
		return r.ce.step(r)
	}
	if r.async != nil {
		return r.asyncRound(), nil
	}
	return r.stepVec(), nil
}
