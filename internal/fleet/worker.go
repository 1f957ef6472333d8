package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"noisypull"
	"noisypull/internal/buildinfo"
	"noisypull/internal/service"
	"noisypull/internal/sim"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator daemon's base URL,
	// e.g. "http://coord:8080".
	Coordinator string
	// NodeID is the node's stable identity; empty lets the coordinator
	// assign one on first registration.
	NodeID string
	// Slots is how many leases run concurrently. Default GOMAXPROCS.
	Slots int
	// SimWorkers is the engine worker count per lease trial. Default 1, so
	// a fully loaded node's CPU use is governed by Slots alone.
	SimWorkers int
	// PollInterval / HeartbeatInterval override the cadence the coordinator
	// advertises at registration. 0 = use the advertised values.
	PollInterval      time.Duration
	HeartbeatInterval time.Duration
	// Client overrides the RPC client (tests). Nil builds one from
	// Coordinator; the service client's retry/backoff applies to every
	// fleet RPC, which are all idempotent by construction.
	Client *service.Client
	// Secret, when set, signs every coordinator RPC body with an HMAC-SHA256
	// tag in the AuthHeader header; it must match the coordinator's
	// -fleet-secret. Ignored when Client already carries a signer.
	Secret string
	// Lie, if non-nil, intercepts every computed lease result just before
	// attestation — the Byzantine fault-injection hook behind -lie-spec. It
	// may mutate the results and/or return a doctored fingerprint to attest
	// under; the coordinator's quorum and digest self-checks exist to catch
	// exactly what this hook produces.
	Lie func(results []service.SeedResult, fingerprint string) ([]service.SeedResult, string)
	// Logf, if non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...any)

	// RPCTimeout caps one coordinator RPC (including the client's internal
	// retries); result deliveries get twice this. Default 10s.
	RPCTimeout time.Duration
}

// Worker is the execution side of the fleet: it registers with the
// coordinator, polls for leases when it has a free slot, executes each
// lease's seed range on the slot's runner, heartbeats while busy, and posts
// results back. Each slot keeps its runner in a sim.Executor keyed by the
// lease's config fingerprint, so the runner is rewound with Reset across
// the seeds of a lease and across leases of one job (the RunBatch
// amortization). It never receives population data; every lease is
// regenerated locally from (spec, seeds).
type Worker struct {
	cfg    WorkerConfig
	client *service.Client
	execs  []executor // one per slot; pollLoop hands them out as semaphore tokens

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	id      string
	running map[string]context.CancelFunc // lease id → abort
	pollIv  time.Duration
	hbIv    time.Duration

	// Failed result deliveries park in sp until flushLoop redelivers them.
	sp *spool

	// Counters for the worker-side /metrics rollup.
	leasesDone     atomic.Int64
	seedsDone      atomic.Int64
	leaseErrs      atomic.Int64
	busy           atomic.Int64
	up             atomic.Bool // last RPC reached the coordinator
	spoolDelivered atomic.Int64
	wireCorrupt    atomic.Int64
}

// NewWorker builds a worker (not yet running).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = 1
	}
	client := cfg.Client
	if client == nil {
		client = service.NewClient(cfg.Coordinator)
	}
	if cfg.Secret != "" && client.Sign == nil {
		client.Sign = Signer(cfg.Secret)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		cfg:     cfg,
		client:  client,
		ctx:     ctx,
		cancel:  cancel,
		execs:   make([]executor, cfg.Slots),
		running: make(map[string]context.CancelFunc),
		id:      cfg.NodeID,
		sp:      newSpool(spoolCap),
	}
}

// executor is a slot's cached runner, keyed by lease fingerprint.
type executor = sim.Executor[*noisypull.Runner, string]

func (w *Worker) rpcTimeout() time.Duration {
	if w.cfg.RPCTimeout > 0 {
		return w.cfg.RPCTimeout
	}
	return 10 * time.Second
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// NodeID returns the node's identity (coordinator-assigned ids are known
// only after the first successful registration; empty before that).
func (w *Worker) NodeID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Start launches the worker's loops: register (retrying until the
// coordinator is reachable), then poll and heartbeat. It returns
// immediately; Close stops everything.
func (w *Worker) Start() {
	w.wg.Add(1)
	go w.run()
}

// Close stops the worker abruptly: running leases are abandoned without a
// result report (the coordinator re-leases them after the deadline), loops
// stop, goroutines are reaped, and the slots' runners are closed. A graceful
// fleet removal is just Close — determinism makes abandoned work
// recomputable anywhere.
func (w *Worker) Close() {
	w.cancel()
	w.wg.Wait()
	for i := range w.execs {
		w.execs[i].Close()
	}
}

func (w *Worker) run() {
	defer w.wg.Done()
	if !w.register() {
		return // ctx cancelled before the coordinator ever answered
	}
	w.wg.Add(2)
	go w.heartbeatLoop()
	go w.flushLoop()
	w.pollLoop()
}

// coordinatorAnswered classifies an RPC error: true means the coordinator
// processed the request and rejected it (it is alive — 4xx, queue
// backpressure), false means it is unreachable or unhealthy (network error,
// 503 while draining or replaying its journal, other 5xx).
func coordinatorAnswered(err error) bool {
	if errors.Is(err, service.ErrNotFound) || errors.Is(err, service.ErrQueueFull) {
		return true
	}
	var he *service.HTTPError
	if errors.As(err, &he) {
		return he.Status < 500
	}
	return false
}

// post is the single funnel for coordinator RPCs: per-request timeout and
// health classification of the outcome.
func (w *Worker) post(path string, in, out any, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(w.ctx, timeout)
	err := w.client.PostIdempotent(ctx, path, in, out)
	cancel()
	w.up.Store(err == nil || coordinatorAnswered(err))
	return err
}

// jitter spreads d over [d/2, 3d/2) so workers started together (or healing
// from the same coordinator outage) don't synchronize their polls into
// thundering herds.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// register announces the node, retrying until it succeeds or the worker is
// closed. It records the assigned id and the advertised cadence.
func (w *Worker) register() bool {
	req := RegisterRequest{
		NodeID:     w.cfg.NodeID,
		Version:    buildinfo.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Slots:      w.cfg.Slots,
	}
	for {
		var resp RegisterResponse
		err := w.post(PathRegister, req, &resp, w.rpcTimeout())
		if err == nil {
			w.mu.Lock()
			w.id = resp.NodeID
			w.pollIv = w.cfg.PollInterval
			if w.pollIv <= 0 {
				w.pollIv = time.Duration(resp.PollMS) * time.Millisecond
			}
			if w.pollIv <= 0 {
				w.pollIv = 500 * time.Millisecond
			}
			w.hbIv = w.cfg.HeartbeatInterval
			if w.hbIv <= 0 {
				w.hbIv = time.Duration(resp.HeartbeatMS) * time.Millisecond
			}
			if w.hbIv <= 0 {
				w.hbIv = 5 * time.Second
			}
			w.mu.Unlock()
			w.logf("fleet: registered as %s with %s (slots=%d poll=%s heartbeat=%s)",
				resp.NodeID, w.cfg.Coordinator, w.cfg.Slots, w.pollIv, w.hbIv)
			return true
		}
		if w.ctx.Err() != nil {
			return false
		}
		w.logf("fleet: registration with %s failed, retrying: %v", w.cfg.Coordinator, err)
		if !sleepCtx(w.ctx, jitter(time.Second)) {
			return false
		}
	}
}

// pollLoop asks for work whenever a slot is free. slots is a semaphore
// whose tokens are the slots' executors; lease execution returns its token
// when the lease (and its result report) finishes.
func (w *Worker) pollLoop() {
	slots := make(chan *executor, len(w.execs))
	for i := range w.execs {
		slots <- &w.execs[i]
	}
	for {
		var ex *executor
		select {
		case <-w.ctx.Done():
			return
		case ex = <-slots:
		}
		lease, ok := w.poll()
		if !ok || lease == nil {
			slots <- ex
			if !sleepCtx(w.ctx, jitter(w.interval(&w.pollIv))) {
				return
			}
			continue
		}
		w.wg.Add(1)
		go func(wl *WireLease) {
			defer w.wg.Done()
			defer func() { slots <- ex }()
			w.runLease(ex, wl)
		}(lease)
	}
}

// poll issues one poll RPC, re-registering when the coordinator forgot this
// node (its restart, or our first contact racing a registry wipe).
func (w *Worker) poll() (*WireLease, bool) {
	var resp PollResponse
	err := w.post(PathPoll, PollRequest{NodeID: w.NodeID()}, &resp, w.rpcTimeout())
	if err != nil {
		if errors.Is(err, service.ErrNotFound) {
			return nil, w.register()
		}
		return nil, w.ctx.Err() == nil
	}
	if resp.Lease == nil {
		return nil, true
	}
	if err := resp.Lease.Validate(); err != nil {
		if errors.Is(err, ErrLeaseChecksum) {
			// Wire corruption, not config drift: drop silently and let the
			// lease deadline re-lease the range. Reporting it as a lease
			// error would fail the whole job over a transient bit flip.
			w.wireCorrupt.Add(1)
			w.logf("fleet: dropping lease %s: %v", resp.Lease.ID, err)
			return nil, true
		}
		// Any other validation failure is reported back as an error rather
		// than silently dropped: the coordinator fails the job loudly
		// (fingerprint mismatches mean config drift someone must see).
		w.leaseErrs.Add(1)
		w.report(&ResultRequest{NodeID: w.NodeID(), LeaseID: resp.Lease.ID, Error: err.Error()})
		return nil, true
	}
	return resp.Lease, true
}

// heartbeatLoop keeps the node and its running leases alive and learns
// which leases to abort (re-leased elsewhere or their job cancelled).
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		if !sleepCtx(w.ctx, w.interval(&w.hbIv)) {
			return
		}
		w.mu.Lock()
		leases := make([]string, 0, len(w.running))
		for id := range w.running {
			leases = append(leases, id)
		}
		w.mu.Unlock()
		req := HeartbeatRequest{
			NodeID:     w.NodeID(),
			Version:    buildinfo.Version(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Slots:      w.cfg.Slots,
			Leases:     leases,
		}
		var resp HeartbeatResponse
		if err := w.post(PathHeartbeat, req, &resp, w.rpcTimeout()); err != nil {
			continue
		}
		if len(resp.Cancel) > 0 {
			w.mu.Lock()
			for _, id := range resp.Cancel {
				if cancel, ok := w.running[id]; ok {
					w.logf("fleet: aborting lease %s (coordinator cancelled it)", id)
					cancel()
				}
			}
			w.mu.Unlock()
		}
	}
}

func (w *Worker) interval(field *time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if *field > 0 {
		return *field
	}
	return 500 * time.Millisecond
}

// runLease executes one lease's seed range on the slot's executor (Reset
// per seed — deterministic, so results are bit-identical to any other
// node's run of the same range) and reports the outcome. An abandoned lease
// (worker closed, or the coordinator cancelled it) reports nothing; the
// coordinator's deadline machinery owns that case.
func (w *Worker) runLease(ex *executor, wl *WireLease) {
	w.busy.Add(1)
	defer w.busy.Add(-1)

	ctx, cancel := context.WithCancel(w.ctx)
	w.mu.Lock()
	w.running[wl.ID] = cancel
	w.mu.Unlock()
	defer func() {
		cancel()
		w.mu.Lock()
		delete(w.running, wl.ID)
		w.mu.Unlock()
	}()

	results, err := w.execute(ctx, ex, wl)
	if ctx.Err() != nil {
		w.logf("fleet: lease %s abandoned mid-run", wl.ID)
		return
	}
	if err != nil {
		w.leaseErrs.Add(1)
		w.report(&ResultRequest{NodeID: w.NodeID(), LeaseID: wl.ID, Error: err.Error()})
		return
	}
	w.leasesDone.Add(1)
	w.seedsDone.Add(int64(len(results)))
	req := &ResultRequest{NodeID: w.NodeID(), LeaseID: wl.ID, Results: results}
	fp := wl.Fingerprint
	if w.cfg.Lie != nil {
		req.Results, fp = w.cfg.Lie(req.Results, fp)
	}
	req.Build = buildinfo.Version()
	req.Atts = AttestAll(req.Results, fp, req.Build)
	w.report(req)
}

// execute runs every seed of the lease on ex, under the lease's
// fingerprint (WireLease.Validate checked it against the spec). Engine and
// protocol panics come back as the lease's error — a poisonous spec fails
// its job on the coordinator instead of killing fleet nodes one by one.
func (w *Worker) execute(ctx context.Context, ex *executor, wl *WireLease) ([]service.SeedResult, error) {
	build := func(seed uint64) (*noisypull.Runner, error) {
		cfg, err := wl.Spec.Build()
		if err != nil {
			return nil, err
		}
		cfg.Workers = w.cfg.SimWorkers
		cfg.Seed = seed
		return noisypull.NewRunner(cfg)
	}
	var results []service.SeedResult
	for i, seed := range wl.Seeds {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res, err := ex.Run(ctx, wl.Fingerprint, seed, build, nil)
		if err != nil {
			return nil, fmt.Errorf("seed %d (%d/%d of lease %s): %w", seed, i+1, len(wl.Seeds), wl.ID, err)
		}
		results = append(results, service.MakeSeedResult(seed, res))
	}
	return results, nil
}

// report posts a lease outcome. The RPC retries transient failures; if the
// coordinator stays unreachable (down, draining, or replaying its journal
// after a restart) the sealed request parks in the spool and flushLoop
// redelivers it when the coordinator heals — the computed range survives the
// outage without a re-lease. If even that fails, the lease deadline
// re-leases the range elsewhere; idempotent merge makes the eventual
// duplicate harmless.
func (w *Worker) report(req *ResultRequest) {
	req.Seal()
	var resp ResultResponse
	err := w.post(PathResult, req, &resp, 2*w.rpcTimeout())
	if err == nil || w.ctx.Err() != nil {
		return
	}
	w.logf("fleet: result delivery for lease %s failed, spooling for redelivery: %v", req.LeaseID, err)
	if w.sp.push(req) {
		w.logf("fleet: result spool full, evicted the oldest delivery")
	}
}

// flushLoop drains the result spool on a steady tick. Head-first, so
// redelivery order roughly matches computation order.
func (w *Worker) flushLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-ticker.C:
		}
		w.flushSpool()
	}
}

// flushSpool redelivers spooled results until the spool is empty or a
// delivery fails. Only a delivery the coordinator answered and refused
// counts against an entry's attempt cap; an unreachable or unhealthy
// coordinator costs no attempt.
func (w *Worker) flushSpool() {
	for {
		e := w.sp.head()
		if e == nil {
			return
		}
		var resp ResultResponse
		err := w.post(PathResult, e.req, &resp, 2*w.rpcTimeout())
		if err == nil {
			if w.sp.drop(e) {
				w.spoolDelivered.Add(1)
			}
			continue
		}
		if w.ctx.Err() != nil || !coordinatorAnswered(err) {
			return
		}
		e.attempts++ // flushLoop is the only consumer, so this is unshared
		if e.attempts >= maxSpoolAttempts {
			w.logf("fleet: abandoning spooled result for lease %s after %d delivery attempts: %v",
				e.req.LeaseID, e.attempts, err)
			w.sp.abandon(e)
			continue
		}
		return // coordinator still unhealthy; wait for the next tick
	}
}

// sleepCtx sleeps d or until ctx is done, reporting whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
