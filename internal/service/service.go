// Package service turns the simulation engine into a long-running
// simulation-as-a-service subsystem: a bounded job queue with backpressure,
// a scheduler whose workers each keep one noisypull.Runner in a
// sim.Executor and rewind it across the seeds of every job of one shape
// (the RunBatch amortization, extended to a daemon's lifetime), a per-job
// state machine (pending → running → done/failed/cancelled) with context
// cancellation threaded into the engine's round loop, an in-memory result
// store with TTL eviction, and streaming round-level progress. cmd/simd
// exposes it over HTTP; Client is the matching Go client.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"noisypull"
	"noisypull/internal/sim"
)

// Sentinel errors mapped to HTTP statuses by the handlers (and back by the
// client).
var (
	// ErrQueueFull means the job queue is at capacity; retry later (429).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrDraining means the service is shutting down and accepts no new
	// jobs (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound means no job with the requested id exists (404).
	ErrNotFound = errors.New("service: no such job")
	// ErrNotReady means the service is still replaying its journal and does
	// not accept jobs yet (503; poll /readyz).
	ErrNotReady = errors.New("service: replaying journal, not ready")
)

// Config tunes a Service. The zero value gets sensible defaults from Open.
type Config struct {
	// QueueCapacity bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with ErrQueueFull (backpressure, not buffering).
	// Default 16.
	QueueCapacity int
	// Workers is the number of scheduler goroutines executing jobs (each
	// holds at most one cached runner). Default GOMAXPROCS.
	Workers int
	// SimWorkers is the engine worker count per simulation. Default 1, so a
	// loaded daemon's CPU use is governed by Workers alone; raise it for
	// latency-sensitive single-job deployments.
	SimWorkers int
	// ResultTTL is how long a terminal job remains queryable before the
	// janitor evicts it. Default 1h.
	ResultTTL time.Duration
	// MaxSeedsPerJob bounds the trials a single submission may request.
	// Default 1024.
	MaxSeedsPerJob int
	// JournalDir, when set, enables the write-ahead job journal: every
	// submission, per-seed result, engine checkpoint, and terminal outcome is
	// appended to an NDJSON file there, and startup replays it — terminal
	// jobs come back queryable, interrupted jobs re-enqueue and resume from
	// their last checkpoint. Empty disables durability (the default).
	JournalDir string
	// CheckpointRounds is the default engine-checkpoint cadence (rounds
	// between journaled snapshots) applied to jobs whose spec leaves
	// checkpoint_rounds unset. 0 disables default checkpointing; it only
	// takes effect with JournalDir set.
	CheckpointRounds int
	// Dispatcher, when non-nil, replaces local seed execution: scheduler
	// workers hand each job's remaining seeds to it instead of running them
	// on a cached runner. The fleet coordinator implements it to fan seeds
	// out across worker nodes; everything around the dispatch — queueing,
	// backpressure, the job state machine, journaling, recovery, streams,
	// and the watchdog — is shared with the local path.
	Dispatcher Dispatcher
	// ExtraMetrics, if non-nil, is appended to the /metrics output after the
	// service's own counters (fleet rollups in coordinator/worker mode).
	ExtraMetrics func(w io.Writer) error
	// Logf, if non-nil, receives one line per job state transition.
	Logf func(format string, args ...any)
}

// DispatchJob describes the remaining work of one job handed to a
// Dispatcher: the spec, its shape fingerprint (the lease identity), and the
// seeds that still need results, in spec order — exactly the seeds without
// a released result.
type DispatchJob struct {
	ID          string
	Spec        JobSpec
	Fingerprint string
	Seeds       []uint64

	// Records are the job's lease records replayed from the journal, in
	// journal order, as the dispatcher appended them before a restart (nil
	// on a first dispatch). The service does not interpret them: the
	// dispatcher folds them into delivered results it must not recompute
	// and in-flight leases it re-adopts.
	Records []LeaseRecord
}

// Dispatcher executes a job's seeds somewhere other than the scheduler
// worker's local runner. Dispatch must call emit exactly once per seed, in
// the order of job.Seeds (an order-free merge upstream is expected to
// restore that order), and return nil only after every seed was emitted.
// Honoring ctx promptly is the cancellation/watchdog contract; returning
// ctx.Err() after cancellation finalizes the job as cancelled (or
// watchdog-failed), any other error as failed.
type Dispatcher interface {
	Dispatch(ctx context.Context, job DispatchJob, emit func(SeedResult)) error
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueCapacity <= 0 {
		out.QueueCapacity = 16
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.SimWorkers <= 0 {
		out.SimWorkers = 1
	}
	if out.ResultTTL <= 0 {
		out.ResultTTL = time.Hour
	}
	if out.MaxSeedsPerJob <= 0 {
		out.MaxSeedsPerJob = 1024
	}
	return out
}

// Service is the simulation job scheduler. Create it with Open, submit with
// Submit, and stop it with Drain (graceful) or Close (forced).
type Service struct {
	cfg Config

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // ids in submission order, for List
	queue    chan *job
	draining bool
	nextID   uint64

	workers     sync.WaitGroup
	janitorStop chan struct{}
	stopOnce    sync.Once

	// Durability state. journal is nil without Config.JournalDir. ready
	// flips true once journal replay finishes (immediately when there is no
	// journal); Submit returns ErrNotReady before that.
	journal    *journal
	ready      atomic.Bool
	replayMu   sync.Mutex
	replay     ReplaySummary
	replayDone bool
	// nodeRecords are the replayed lease records that name no job, for the
	// fleet coordinator to fold. Written once by recover, under replayMu.
	nodeRecords []LeaseRecord

	metrics metrics
}

// Open starts a Service: cfg.Workers scheduler goroutines plus a TTL
// janitor. It fails only if the journal cannot be opened. With
// Config.JournalDir set, the returned service is not yet ready: it replays
// the journal in the background (Submit returns ErrNotReady meanwhile) and
// flips ready once recovery finishes — poll Ready or GET /readyz.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:         cfg,
		rootCtx:     ctx,
		rootCancel:  cancel,
		jobs:        make(map[string]*job),
		queue:       make(chan *job, cfg.QueueCapacity),
		janitorStop: make(chan struct{}),
	}
	if cfg.JournalDir != "" {
		jl, err := openJournal(cfg.JournalDir, s.logf, func() { s.metrics.journalErrors.Add(1) })
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jl
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	go s.janitor()
	if s.journal != nil {
		go s.recover()
	} else {
		s.replayMu.Lock()
		s.replayDone = true
		s.replayMu.Unlock()
		s.ready.Store(true)
	}
	return s, nil
}

// Ready reports whether the service accepts submissions (journal replay
// finished, not draining).
func (s *Service) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return !draining
}

// Replayed reports whether journal replay has finished (immediately true
// without a journal). The fleet wire gates on this rather than Ready(): a
// draining coordinator must still accept late result deliveries so
// in-flight dispatches can finish before the drain deadline.
func (s *Service) Replayed() bool {
	return s.ready.Load()
}

// AppendLease journals one fleet lease-lifecycle record. The coordinator
// calls it through its Binding; without a journal it is a no-op.
func (s *Service) AppendLease(rec LeaseRecord) {
	s.journal.appendLease(&rec)
}

// NodeRecords returns the replayed lease records that name no job
// (quarantine, absolve), in journal order; nil before replay finishes or
// without a journal. The fleet coordinator folds them so a quarantined node
// does not regain leases just because the coordinator restarted.
func (s *Service) NodeRecords() []LeaseRecord {
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	return s.nodeRecords
}

// JobState reports a job's current state by id.
func (s *Service) JobState(id string) (State, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return "", false
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	return st, true
}

// ReplayStatus returns the journal replay summary and whether replay has
// finished. Before completion the summary is zero; without a journal it is
// zero and done.
func (s *Service) ReplayStatus() (ReplaySummary, bool) {
	s.replayMu.Lock()
	defer s.replayMu.Unlock()
	return s.replay, s.replayDone
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates the spec, stores the job, journals it, and enqueues it.
// It returns the pending status, or ErrQueueFull / ErrDraining /
// ErrNotReady / a validation error.
func (s *Service) Submit(spec JobSpec) (*JobStatus, error) {
	if !s.ready.Load() {
		return nil, ErrNotReady
	}
	spec.normalize()
	if spec.CheckpointRounds == 0 {
		spec.CheckpointRounds = s.cfg.CheckpointRounds
	}
	if len(spec.Seeds) > s.cfg.MaxSeedsPerJob {
		return nil, fmt.Errorf("spec: %d seeds exceed the per-job limit %d", len(spec.Seeds), s.cfg.MaxSeedsPerJob)
	}
	cfg, err := spec.build()
	if err != nil {
		return nil, err
	}
	cfg.Workers = s.cfg.SimWorkers

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j-%06d", s.nextID),
		spec:    spec,
		shape:   spec.shape(),
		cfg:     cfg,
		state:   StatePending,
		created: time.Now(),
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, ErrQueueFull
	}
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Journal the submission before the job reaches the queue, and inside
	// the critical section that checked draining. Before the send no worker
	// can see the job, so its submit record precedes every state, seed and
	// terminal record a worker journals for it; replay skips records of a
	// job it has not seen submitted. Drain flips draining and finalizes
	// leftover queued jobs under this same mutex ordering, so a submission
	// is either rejected with 503 before any journal write, or fully
	// journaled and guaranteed a journaled terminal record — never journaled
	// then silently orphaned. Every send to s.queue happens under s.mu and
	// workers only take from it, so the room checked above is still there
	// and the send cannot block.
	s.journal.appendSubmit(j.id, &spec)
	s.queue <- j
	s.mu.Unlock()

	s.metrics.submitted.Add(1)
	s.logf("job %s submitted: protocol=%s n=%d h=%d seeds=%d", j.id, spec.Protocol, spec.N, spec.H, len(spec.Seeds))
	return j.status(), nil
}

// Get returns the status of a job.
func (s *Service) Get(id string) (*JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.status(), nil
}

// List returns all stored jobs in submission order.
func (s *Service) List() []*JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation of a job. A pending job is finalized
// immediately; a running one stops within one simulated round (the engine
// checks the job context at every round boundary). Cancelling a terminal
// job is a no-op returning its current status.
func (s *Service) Cancel(id string) (*JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	state := j.state
	if state == StatePending {
		j.state = StateRunning // block the double-finish path; finish below sets the real state
	}
	j.mu.Unlock()

	switch {
	case state.Terminal():
	case state == StatePending:
		s.finalize(j, StateCancelled, "cancelled before start")
		s.logf("job %s cancelled while queued", j.id)
	default:
		j.cancel()
	}
	return j.status(), nil
}

// finalize is the single exit to a terminal state: it finishes the job,
// journals the terminal record (fsynced — an acknowledged outcome survives
// power loss), and bumps the outcome counter. Every terminal transition in
// the service goes through here, which is what guarantees that a journaled
// submission always gains a journaled terminal record.
func (s *Service) finalize(j *job, state State, errMsg string) {
	finished := j.finish(state, errMsg, s.cfg.ResultTTL)
	s.journal.appendTerminal(j.id, state, errMsg, finished)
	switch state {
	case StateDone:
		s.metrics.done.Add(1)
	case StateFailed:
		s.metrics.failed.Add(1)
	case StateCancelled:
		s.metrics.cancelled.Add(1)
	}
}

// Subscribe attaches a progress stream to a job (see job.subscribe).
func (s *Service) Subscribe(id string) (<-chan Event, func(), error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	ch, unsub := j.subscribe()
	return ch, unsub, nil
}

func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// QueueDepth reports the number of jobs waiting for a worker.
func (s *Service) QueueDepth() int { return len(s.queue) }

// executor is a scheduler worker's cached runner, keyed by job shape: it is
// rewound with Reset while consecutive seeds share a shape and rebuilt when
// the shape changes.
type executor = sim.Executor[*noisypull.Runner, shapeKey]

// worker executes jobs off the queue until the queue closes (drain).
func (s *Service) worker() {
	defer s.workers.Done()
	var ex executor
	defer ex.Close()
	for j := range s.queue {
		s.runJob(j, &ex)
	}
}

// runJob drives one job through its seeds on the worker's executor. A
// recovered job re-enters here with its journaled results preloaded: the
// completed prefix of the seed list is skipped, and the first remaining seed
// restores from the job's checkpoint when one was journaled.
func (s *Service) runJob(j *job, ex *executor) {
	j.mu.Lock()
	if j.state != StatePending { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	start := len(j.results) // recovered trials; seeds run in order
	j.mu.Unlock()

	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)
	s.logf("job %s running (%d seeds)", j.id, len(j.spec.Seeds)-start)

	// Stuck-job watchdog: a job exceeding its wall-clock budget is cancelled
	// and finalized as failed — a runaway spec must not pin a scheduler
	// worker (and its runner) forever.
	if ms := j.spec.MaxWallMS; ms > 0 {
		timer := time.AfterFunc(time.Duration(ms)*time.Millisecond, func() {
			if j.watchdog.CompareAndSwap(false, true) {
				s.metrics.watchdogKills.Add(1)
				s.logf("job %s exceeded max_wall_ms=%d, killing", j.id, ms)
				j.cancel()
			}
		})
		defer timer.Stop()
	}

	var runErr error
	if s.cfg.Dispatcher != nil {
		runErr = s.runDispatched(j, start)
	} else {
		runErr = s.runLocal(j, ex, start)
	}
	if runErr != nil && j.ctx.Err() == nil {
		s.finalize(j, StateFailed, runErr.Error())
		s.logf("job %s failed: %v", j.id, runErr)
		return
	}

	if j.ctx.Err() != nil {
		if j.watchdog.Load() {
			s.finalize(j, StateFailed, fmt.Sprintf("watchdog: exceeded max_wall_ms=%d", j.spec.MaxWallMS))
			s.logf("job %s killed by watchdog", j.id)
			return
		}
		s.finalize(j, StateCancelled, "cancelled")
		s.logf("job %s cancelled", j.id)
		return
	}
	s.finalize(j, StateDone, "")
	s.logf("job %s done", j.id)
}

// runLocal is the single-node execution path: the job's remaining seeds run
// in order on the scheduler worker's executor. A seed error is returned (the
// job fails); cancellation surfaces as a nil return with j.ctx done.
func (s *Service) runLocal(j *job, ex *executor, start int) error {
	for _, seed := range j.spec.Seeds[start:] {
		if j.ctx.Err() != nil {
			return nil
		}
		res, err := s.runSeed(j, ex, seed)
		if err != nil {
			if j.ctx.Err() != nil {
				return nil // cancelled (watchdog or drain deadline); caller finalizes
			}
			return err
		}
		s.commitSeed(j, MakeSeedResult(seed, res))
	}
	return nil
}

// runDispatched hands the job's remaining seeds to the configured Dispatcher
// (the fleet coordinator). Results come back through emit in seed order —
// the dispatcher's merge restores order from whatever nodes delivered — and
// land in the same result store, stream, and journal the local path uses, so
// crash recovery and resumable streams work identically: a recovered job
// re-dispatches only its incomplete suffix.
func (s *Service) runDispatched(j *job, start int) error {
	dj := DispatchJob{
		ID:          j.id,
		Spec:        j.spec,
		Fingerprint: j.spec.Fingerprint(),
		Seeds:       j.spec.Seeds[start:],
		Records:     j.leases,
	}
	// Recovery state is consumed by the first dispatch only, like resume.
	j.leases = nil
	err := s.cfg.Dispatcher.Dispatch(j.ctx, dj, func(sr SeedResult) {
		s.metrics.rounds.Add(int64(sr.Rounds))
		s.metrics.faults.Add(int64(len(sr.Faults)))
		s.commitSeed(j, sr)
	})
	if err != nil && j.ctx.Err() != nil {
		return nil // cancellation/watchdog; caller finalizes from j.ctx
	}
	return err
}

// commitSeed records one finished trial: result store, progress stream,
// journal. Both execution paths converge here, which is what keeps fleet
// runs bit-identical to local ones all the way into the journal.
func (s *Service) commitSeed(j *job, sr SeedResult) {
	j.mu.Lock()
	j.results = append(j.results, sr)
	j.mu.Unlock()
	seq := j.publish(Event{Type: "seed", Seed: sr.Seed, Result: &sr})
	s.journal.appendSeed(j.id, sr.Seed, &sr, seq)
}

// MakeSeedResult converts an engine result into the wire form. Exported for
// the fleet worker, which executes leases outside the scheduler.
func MakeSeedResult(seed uint64, res *noisypull.Result) SeedResult {
	sr := SeedResult{
		Seed:            seed,
		Rounds:          res.Rounds,
		Converged:       res.Converged,
		FirstAllCorrect: res.FirstAllCorrect,
		CorrectOpinion:  res.CorrectOpinion,
		FinalCorrect:    res.FinalCorrect,
	}
	for _, rec := range res.Faults {
		sr.Faults = append(sr.Faults, FaultOutcome{
			Round:       rec.Round,
			Kind:        rec.Kind.String(),
			Index:       rec.Index,
			Affected:    rec.Affected,
			RecoveredAt: rec.RecoveredAt,
		})
	}
	return sr
}

// runSeed executes one trial on the worker's executor, which reuses its
// runner across seeds and jobs of one shape. A panic in protocol or engine
// code fails the seed, and so the job, without taking down the scheduler
// worker (and with it the daemon's capacity); the executor drops the
// runner, whose mid-round state is arbitrary. Recovery covers the engine's
// synchronous path, which is how service jobs run (SimWorkers defaults to
// 1).
func (s *Service) runSeed(j *job, ex *executor, seed uint64) (*noisypull.Result, error) {
	build := func(seed uint64) (*noisypull.Runner, error) {
		cfg := j.cfg
		cfg.Seed = seed
		return noisypull.NewRunner(cfg)
	}
	// prepare sets all three hooks on every seed, so a reused runner never
	// carries another job's.
	prepare := func(r *noisypull.Runner) error {
		// A recovered job restores its journaled checkpoint into the fresh
		// (or rewound) runner, skipping the rounds that already ran before
		// the crash. A restore failure is not fatal: the engine is
		// deterministic, so rerunning the seed from round zero reproduces
		// the identical trajectory — the checkpoint is an optimization, not
		// a correctness dependency.
		if rs := j.resume; rs != nil && rs.seed == seed {
			j.resume = nil
			if err := r.Restore(rs.data); err != nil {
				s.metrics.restoreFailures.Add(1)
				s.logf("job %s: checkpoint restore failed, rerunning seed %d from round 0: %v", j.id, seed, err)
				r.Reset(seed) // a failed Restore leaves unspecified state
			} else {
				s.metrics.rounds.Add(int64(rs.round))
			}
		}
		r.SetOnRound(func(round, correct int) {
			s.metrics.rounds.Add(1)
			j.publish(Event{Type: "round", Seed: seed, Round: round, Correct: correct})
		})
		r.SetOnFault(func(rec noisypull.FaultRecord) {
			s.metrics.faults.Add(1)
			j.publish(Event{Type: "fault", Seed: seed, Round: rec.Round, Kind: rec.Kind.String(), Affected: rec.Affected})
		})
		if every := j.spec.CheckpointRounds; every > 0 && s.journal != nil {
			r.SetCheckpoint(every, func(round int, data []byte) {
				s.metrics.checkpoints.Add(1)
				s.metrics.checkpointBytes.Store(int64(len(data)))
				s.journal.appendCheckpoint(j.id, seed, round, data, j.seq.Load())
			})
		} else {
			r.SetCheckpoint(0, nil)
		}
		return nil
	}
	res, err := ex.Run(j.ctx, j.shape, seed, build, prepare)
	if errors.Is(err, sim.ErrPanic) {
		s.metrics.panics.Add(1)
	}
	return res, err
}

// janitor evicts terminal jobs past their TTL.
func (s *Service) janitor() {
	interval := s.cfg.ResultTTL / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-ticker.C:
			s.evict(now)
		}
	}
}

func (s *Service) evict(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var kept []string
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		expired := j.state.Terminal() && !j.expiry.IsZero() && now.After(j.expiry)
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
			s.metrics.evicted.Add(1)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Drain gracefully shuts the service down: stop accepting submissions
// (ErrDraining), let queued and running jobs finish, and — if ctx expires
// first — cancel whatever is still in flight (those jobs finalize as
// cancelled within one simulated round). Drain returns ctx.Err() when the
// deadline forced cancellation, nil on a clean drain. It is idempotent.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.rootCancel() // cancels every job context; workers unwind fast
		<-idle
	}

	s.stopOnce.Do(func() {
		s.rootCancel()
		close(s.janitorStop)
	})
	// Jobs that were still queued when the deadline hit were never picked up
	// by a worker; finalize them (with journaled terminal records) so no
	// submission — in particular none that was journaled in a Submit racing
	// this shutdown — is left pending forever or orphaned in the journal.
	s.mu.Lock()
	pending := make([]*job, 0)
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StatePending {
			j.state = StateRunning // reserve the finish transition
			pending = append(pending, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range pending {
		s.finalize(j, StateCancelled, "cancelled: service shut down")
	}
	s.journal.close()
	return err
}

// Close force-stops the service: cancel everything, wait for workers.
func (s *Service) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// Jobs returns summary counts by state (for /metrics and tests).
func (s *Service) Jobs() map[State]int {
	out := make(map[State]int)
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// sortStates is a stable order for metrics output.
var sortStates = []State{StatePending, StateRunning, StateDone, StateFailed, StateCancelled}
