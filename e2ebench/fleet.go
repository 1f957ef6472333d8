package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path"
	"sync"
	"time"

	"noisypull/internal/buildinfo"
	"noisypull/internal/fleet"
	"noisypull/internal/service"
)

// fleet-quorum drives a coordinator (a service whose Dispatcher is
// fleet.Coordinator, journal off) and two loopback workers with one slot
// each. Every RPC carries an HMAC, and VerifySeeds=2 runs every range on
// both nodes and admits it on digest agreement: two nodes at quorum 2 run
// the quorum code path without putting three simulation goroutines on two
// cores.
const (
	fleetSecret      = "e2ebench-fleet-secret"
	fleetSeedsPerJob = 16
	fleetPoll        = 5 * time.Millisecond // short, so idle polling does not set job latency
	fleetHeartbeat   = 200 * time.Millisecond
	fleetWorkers     = 2
	fleetHMACBodies  = 64 // result bodies kept for the HMAC timing
	fleetHMACRepeats = 20
)

var fleetShapes = []shape{{block: 1, spec: service.JobSpec{Protocol: "sf", N: 512, H: 32, Sources1: 12, Delta: 0.05}}}

// fleetStats collects the traced fleet pass's wire-level counts and spans.
type fleetStats struct {
	tr *tracer

	mu         sync.Mutex
	polls      int
	emptyPolls int
	wireBytes  int64
	computed   int // seeds carried by result RPCs
	admitted   int // seeds the dispatcher emitted
	grants     []float64
	requeues   int
	leases     map[string]leaseSeen // lease id → its poll
	lastResult map[string]time.Time // job id → start of its last result RPC
	dispatches map[string]int64     // job id → dispatch span id
	bodies     [][]byte
}

type leaseSeen struct {
	job  string
	span int64
	at   time.Time
}

func newFleetStats(tr *tracer) *fleetStats {
	return &fleetStats{
		tr:         tr,
		leases:     map[string]leaseSeen{},
		lastResult: map[string]time.Time{},
		dispatches: map[string]int64{},
	}
}

// resetCounts zeroes the counters, so set-up traffic (registration, the
// warm-up job) is not counted against the window's seeds.
func (fs *fleetStats) resetCounts() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.polls, fs.emptyPolls, fs.computed, fs.admitted, fs.requeues = 0, 0, 0, 0, 0
	fs.wireBytes = 0
	fs.grants = nil
}

// rpcTransport times every worker RPC and reads the lease traffic off the
// wire: which polls carried a lease, and which result RPC closed it.
type rpcTransport struct {
	base *http.Transport
	fs   *fleetStats
}

func (t *rpcTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		body, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
	}
	kind := path.Base(req.URL.Path)
	start := time.Now()
	var lease leaseSeen
	if kind == "result" {
		lease = t.fs.resultSent(body, start)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	t.fs.rpc(kind, lease, body, data, start, time.Now())
	return resp, nil
}

// resultSent closes the span of the lease a result RPC delivers, before
// the coordinator can admit it, and returns that lease.
func (fs *fleetStats) resultSent(body []byte, start time.Time) leaseSeen {
	var rr fleet.ResultRequest
	if json.Unmarshal(body, &rr) != nil {
		return leaseSeen{}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.computed += len(rr.Results)
	if len(fs.bodies) < fleetHMACBodies {
		fs.bodies = append(fs.bodies, body)
	}
	l, ok := fs.leases[rr.LeaseID]
	if !ok {
		return leaseSeen{}
	}
	delete(fs.leases, rr.LeaseID)
	fs.tr.record(l.span, fs.dispatches[l.job], "fleet.lease", l.job, l.at, start)
	fs.lastResult[l.job] = start
	return l
}

// rpc counts one finished RPC; lease is the lease a result RPC delivered.
func (fs *fleetStats) rpc(kind string, lease leaseSeen, req, resp []byte, start, end time.Time) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.wireBytes += int64(len(req) + len(resp))
	if kind != "poll" {
		fs.tr.add(lease.span, "fleet.rpc."+kind, lease.job, start, end)
		return
	}
	fs.polls++
	var pr fleet.PollResponse
	if json.Unmarshal(resp, &pr) != nil || pr.Lease == nil {
		fs.emptyPolls++
		fs.tr.add(0, "fleet.rpc.poll", "", start, end)
		return
	}
	fs.leases[pr.Lease.ID] = leaseSeen{job: pr.Lease.Job, span: fs.tr.id(), at: end}
	fs.tr.add(fs.dispatches[pr.Lease.Job], "fleet.rpc.poll", pr.Lease.Job, start, end)
}

// middleware wraps the coordinator's wire handlers (RoutesWith).
func (fs *fleetStats) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		fs.tr.add(0, "fleet.handler."+path.Base(r.URL.Path), "", t0, time.Now())
	})
}

// timedDispatcher wraps the coordinator's Dispatch to time each job's
// dispatch and the lag from its last result RPC to its last released seed.
type timedDispatcher struct {
	inner service.Dispatcher
	fs    *fleetStats
}

func (d *timedDispatcher) Dispatch(ctx context.Context, job service.DispatchJob, emit func(service.SeedResult)) error {
	fs := d.fs
	id := fs.tr.id()
	fs.mu.Lock()
	fs.dispatches[job.ID] = id
	fs.mu.Unlock()
	t0 := time.Now()
	var last time.Time
	emitted := 0
	err := d.inner.Dispatch(ctx, job, func(sr service.SeedResult) {
		last = time.Now()
		emitted++
		emit(sr)
	})
	end := time.Now()
	fs.tr.record(id, fs.tr.root(job.ID), "fleet.dispatch", job.ID, t0, end)
	fs.mu.Lock()
	fs.admitted += emitted
	lr, ok := fs.lastResult[job.ID]
	fs.mu.Unlock()
	if ok && last.After(lr) {
		fs.tr.add(id, "fleet.release_lag", job.ID, lr, last)
	}
	return err
}

// countingBinding wraps the coordinator's fleet.Binding to count lease
// grants (and their seeds) and re-leases.
type countingBinding struct {
	fleet.Binding
	fs *fleetStats
}

func (b countingBinding) AppendLease(rec service.LeaseRecord) {
	b.fs.mu.Lock()
	switch rec.Op {
	case service.LeaseGrant:
		b.fs.grants = append(b.fs.grants, float64(len(rec.Seeds)))
	case service.LeaseRequeue, service.LeaseAbandon:
		b.fs.requeues++
	}
	b.fs.mu.Unlock()
	b.Binding.AppendLease(rec)
}

// fleetRig is a running coordinator, its two workers and two clients.
type fleetRig struct {
	coord   *fleet.Coordinator
	svc     *service.Service
	srv     *server
	workers []*fleet.Worker
	wires   []*http.Client
	clients []*service.Client
}

// setupFleet starts the coordinator service and the workers, waits for
// both to register, and runs one warm-up job. A non-nil fs instruments
// every hook.
func setupFleet(ctx context.Context, o options, fs *fleetStats, warm *mix) (*fleetRig, error) {
	rig := &fleetRig{coord: fleet.NewCoordinator(fleet.Config{
		VerifySeeds:       o.Quorum,
		Secret:            fleetSecret,
		PollInterval:      fleetPoll,
		HeartbeatInterval: fleetHeartbeat,
	})}
	var disp service.Dispatcher = rig.coord
	if fs != nil {
		disp = &timedDispatcher{inner: rig.coord, fs: fs}
	}
	svc, err := service.Open(service.Config{Workers: gomaxprocs, SimWorkers: 1, Dispatcher: disp})
	if err != nil {
		rig.coord.Close()
		return nil, fmt.Errorf("open coordinator service: %w", err)
	}
	rig.svc = svc
	var bind fleet.Binding = svc
	var mw func(http.Handler) http.Handler
	if fs != nil {
		bind = countingBinding{Binding: svc, fs: fs}
		mw = fs.middleware
	}
	rig.coord.Bind(bind)
	mux := svc.Handler()
	rig.coord.RoutesWith(mux, mw)
	if rig.srv, err = serve(mux); err != nil {
		rig.close()
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		base := &http.Transport{MaxIdleConnsPerHost: 4}
		hc := &http.Client{Transport: base}
		if fs != nil {
			hc.Transport = &rpcTransport{base: base, fs: fs}
		}
		rig.wires = append(rig.wires, hc)
		cfg := fleet.WorkerConfig{
			Coordinator:       rig.srv.url,
			NodeID:            fmt.Sprintf("node-%d", i),
			Slots:             1,
			SimWorkers:        1,
			PollInterval:      fleetPoll,
			HeartbeatInterval: fleetHeartbeat,
			Client:            &service.Client{BaseURL: rig.srv.url, HTTPClient: hc},
			Secret:            fleetSecret,
		}
		if i == 1 {
			cfg.Lie = o.Lie
		}
		w := fleet.NewWorker(cfg)
		w.Start()
		rig.workers = append(rig.workers, w)
	}
	if err := waitFor(ctx, "worker registration", func() bool { return len(rig.coord.Nodes()) == fleetWorkers }); err != nil {
		rig.close()
		return nil, err
	}
	for c := 0; c < 2; c++ {
		rig.clients = append(rig.clients, newJobClient(rig.srv.url, nil))
	}
	if jr := doJob(ctx, rig.clients[0], warm.next(), nil); jr.err != nil || jr.final.State != service.StateDone {
		rig.close()
		return nil, fmt.Errorf("warm-up job failed: %v %+v", jr.err, jr.final)
	}
	return rig, nil
}

func (r *fleetRig) close() {
	for _, w := range r.workers {
		w.Close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	closeClients(r.clients)
	for _, hc := range r.wires {
		hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.svc.Drain(ctx) // nothing is in flight; a forced drain only cancels leftovers
	r.coord.Close()
}

func (r *fleetRig) pass(ctx context.Context, seconds float64, mixes []*mix, tr *tracer) (windowStats, []jobRun, error) {
	win := openWindow()
	jobs := runClients(ctx, r.clients, mixes, win.start.Add(time.Duration(seconds*float64(time.Second))), tr)
	return win.close(), jobs, ctx.Err()
}

func runFleetQuorum(ctx context.Context, o options, rep *report) error {
	pick := rand.New(rand.NewPCG(o.Seed, 3))
	warm := warmMix(fleetShapes, fleetSeedsPerJob)
	if o.Trace {
		return traceFleetQuorum(ctx, o, warm, pick, rep)
	}
	rig, err := repeatSetup(rep, o.setupReps(5), func() (*fleetRig, error) {
		return setupFleet(ctx, o, nil, warm)
	}, (*fleetRig).close)
	if err != nil {
		return err
	}
	ws, jobs, err := rig.pass(ctx, o.Seconds, clientMixes(o.Seed, fleetShapes, fleetSeedsPerJob), nil)
	rig.close()
	if err != nil {
		return err
	}
	t, err := checkJobs(ctx, jobs, pick, rep)
	if err != nil {
		return err
	}
	return rep.endToEndMetrics(ws, t.seeds, t.agentRounds, t.latencies)
}

// traceFleetQuorum runs an untraced pass (the tracing-overhead baseline)
// and a traced pass, each on a fresh fleet with the same job sequence.
func traceFleetQuorum(ctx context.Context, o options, warm *mix, pick *rand.Rand, rep *report) error {
	half := o.Seconds / 2
	rig, err := setupFleet(ctx, o, nil, warm)
	if err != nil {
		return err
	}
	plainWS, plainJobs, err := rig.pass(ctx, half, clientMixes(o.Seed, fleetShapes, fleetSeedsPerJob), nil)
	rig.close()
	if err != nil {
		return err
	}
	tr := newTracer(true)
	fs := newFleetStats(tr)
	if rig, err = setupFleet(ctx, o, fs, warm); err != nil {
		return err
	}
	fs.resetCounts()
	tracedWS, tracedJobs, err := rig.pass(ctx, half, clientMixes(o.Seed, fleetShapes, fleetSeedsPerJob), tr)
	rig.close()
	if err != nil {
		return err
	}
	plain, err := checkJobs(ctx, plainJobs, pick, rep)
	if err != nil {
		return err
	}
	traced, err := checkJobs(ctx, tracedJobs, pick, rep)
	if err != nil {
		return err
	}
	if plain.seeds == 0 || traced.seeds == 0 || fs.admitted == 0 {
		return fmt.Errorf("a fleet pass completed no job")
	}
	rep.allocMetrics(plainWS, plain.seeds)
	for _, k := range []string{"register", "poll", "heartbeat", "result"} {
		rep.p50("fleet.rpc_ms."+k, tr.durationsMS("fleet.rpc."+k))
	}
	for _, k := range []string{"poll", "heartbeat", "result"} {
		rep.p50("fleet.handler_ms."+k, tr.durationsMS("fleet.handler."+k))
	}
	admitted := float64(fs.admitted)
	rep.Metrics["fleet.wire_bytes_per_seed"] = float64(fs.wireBytes) / admitted
	rep.Metrics["fleet.polls_per_seed"] = float64(fs.polls) / admitted
	rep.Metrics["fleet.empty_poll_frac"] = float64(fs.emptyPolls) / float64(fs.polls)
	rep.Metrics["fleet.computed_per_admitted"] = float64(fs.computed) / admitted
	rep.p50("fleet.lease_exec_ms", tr.durationsMS("fleet.lease"))
	rep.p50("fleet.dispatch_ms", tr.durationsMS("fleet.dispatch"))
	rep.p50("fleet.release_lag_ms", tr.durationsMS("fleet.release_lag"))
	if len(fs.grants) > 0 {
		sum := 0.0
		for _, g := range fs.grants {
			sum += g
		}
		rep.Metrics["fleet.seeds_per_lease"] = sum / float64(len(fs.grants))
		rep.Samples["fleet.seeds_per_lease"] = len(fs.grants)
	}
	rep.Context["fleet_requeues"] = fs.requeues
	rep.Metrics["fleet.attest_us_per_seed"] = attestUSPerSeed(tracedJobs)
	rep.Metrics["fleet.hmac_us_per_kb"] = hmacUSPerKB(fs.bodies)
	rep.Metrics["trace.overhead_frac"] = rate(plain.seeds, plainWS)/rate(traced.seeds, tracedWS) - 1
	return finishTrace(o, tr, rep, "")
}

// attestUSPerSeed times fleet.AttestAll over every completed job's results.
func attestUSPerSeed(jobs []jobRun) float64 {
	build := buildinfo.Version()
	var d time.Duration
	seeds := 0
	for _, jr := range jobs {
		if jr.err != nil || len(jr.final.Results) == 0 {
			continue
		}
		fp := jr.spec.Fingerprint()
		t0 := time.Now()
		fleet.AttestAll(jr.final.Results, fp, build)
		d += time.Since(t0)
		seeds += len(jr.final.Results)
	}
	if seeds == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(seeds)
}

// hmacUSPerKB times signing (fleet.Signer) plus verification
// (fleet.VerifyAuth) of captured result bodies, per KiB of body.
func hmacUSPerKB(bodies [][]byte) float64 {
	sign := fleet.Signer(fleetSecret)
	req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1"+fleet.PathResult, nil)
	if err != nil || len(bodies) == 0 {
		return 0
	}
	var d time.Duration
	var kb float64
	for k := 0; k < fleetHMACRepeats; k++ {
		for _, b := range bodies {
			t0 := time.Now()
			sign(req, b)
			ok := fleet.VerifyAuth(fleetSecret, req.Header.Get(fleet.AuthHeader), b)
			d += time.Since(t0)
			if !ok {
				return 0
			}
			kb += float64(len(b)) / 1024
		}
	}
	return float64(d.Nanoseconds()) / 1e3 / kb
}
