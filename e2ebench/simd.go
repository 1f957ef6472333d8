package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"noisypull/internal/service"
)

// simd-stream drives an in-process simd over loopback HTTP. Its jobs are
// small (a seed costs milliseconds of engine time), so HTTP, JSON, the
// round-event stream, queueing, runner Reset against rebuild, and journal
// writes dominate.
const (
	simdSeedsPerJob = 8
	// simdCheckpointRounds checkpoints the SF trials (591 rounds) five
	// times each; the shorter shapes finish between checkpoints.
	simdCheckpointRounds = 100
)

// simdShapes is the client mix: n from 512 to 4096, h from 2 to 16, across
// all five protocols, one with a fault schedule and one on the counts
// backend. The blocks set each shape's share of the jobs.
var simdShapes = []shape{
	{block: 5, spec: service.JobSpec{Protocol: "sf", N: 512, H: 16, Sources1: 12, Delta: 0.05}},
	{block: 3, spec: service.JobSpec{Protocol: "ssf", N: 1024, H: 16, Sources1: 30, Delta: 0.01, C1: 0.25}},
	{block: 4, spec: service.JobSpec{Protocol: "voter", N: 4096, H: 2, Sources1: 80, Delta: 0.1, MaxRounds: 40}},
	{block: 4, spec: service.JobSpec{Protocol: "majority", N: 512, H: 4, Sources1: 16, Delta: 0.1, MaxRounds: 60,
		Faults: []service.FaultSpec{
			{Kind: "corrupt", Round: 20, Fraction: 0.3, Mode: "random"},
			{Kind: "crash", Round: 30, Fraction: 0.2, Duration: 10},
		}}},
	{block: 4, spec: service.JobSpec{Protocol: "trustbit", N: 1024, H: 4, Sources1: 20, Delta: 0.05, MaxRounds: 60}},
	{block: 4, spec: service.JobSpec{Protocol: "majority", N: 4096, H: 16, Sources1: 64, Delta: 0.1, MaxRounds: 200, Backend: "counts"}},
}

// simdRig is one running simd: service, HTTP server and two clients.
type simdRig struct {
	svc         *service.Service
	srv         *server
	dir         string
	clients     []*service.Client
	streamBytes *atomic.Int64 // nil when untraced
}

// setupSimd opens a service (journal in dir, or off when dir is empty),
// serves it, and runs one warm-up job per shape.
func setupSimd(ctx context.Context, dir string, tr *tracer, warm *mix) (*simdRig, error) {
	cfg := service.Config{Workers: gomaxprocs, SimWorkers: 1}
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		cfg.JournalDir = dir
		cfg.CheckpointRounds = simdCheckpointRounds
	}
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	rig := &simdRig{svc: svc, dir: dir}
	if err := waitFor(ctx, "journal replay", svc.Ready); err != nil {
		rig.close()
		return nil, err
	}
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = timeJobAPI(h, tr)
		rig.streamBytes = new(atomic.Int64)
	}
	if rig.srv, err = serve(h); err != nil {
		rig.close()
		return nil, err
	}
	for c := 0; c < 2; c++ {
		rig.clients = append(rig.clients, newJobClient(rig.srv.url, rig.streamBytes))
	}
	for range simdShapes {
		if jr := doJob(ctx, rig.clients[0], warm.next(), nil); jr.err != nil || jr.final.State != service.StateDone {
			rig.close()
			return nil, fmt.Errorf("warm-up job failed: %v %+v", jr.err, jr.final)
		}
	}
	return rig, nil
}

func (r *simdRig) close() {
	if r.srv != nil {
		r.srv.close()
	}
	closeClients(r.clients)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.svc.Drain(ctx) // nothing is in flight; a forced drain only cancels leftovers
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// waitFor polls cond every millisecond for up to ten seconds.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// simdPass is what one timed window against a simd measured.
type simdPass struct {
	ws           windowStats
	jobs         []jobRun
	journalBytes int64
	checkpoints  int64
	streamBytes  int64
}

func (r *simdRig) pass(ctx context.Context, seconds float64, mixes []*mix, tr *tracer) (*simdPass, error) {
	j0, err := r.journalBytes()
	if err != nil {
		return nil, err
	}
	c0, err := r.checkpoints()
	if err != nil {
		return nil, err
	}
	var s0 int64
	if r.streamBytes != nil {
		s0 = r.streamBytes.Load()
	}
	win := openWindow()
	jobs := runClients(ctx, r.clients, mixes, win.start.Add(time.Duration(seconds*float64(time.Second))), tr)
	p := &simdPass{ws: win.close(), jobs: jobs}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	j1, err := r.journalBytes()
	if err != nil {
		return nil, err
	}
	c1, err := r.checkpoints()
	if err != nil {
		return nil, err
	}
	p.journalBytes, p.checkpoints = j1-j0, c1-c0
	if r.streamBytes != nil {
		p.streamBytes = r.streamBytes.Load() - s0
	}
	return p, nil
}

func (r *simdRig) journalBytes() (int64, error) {
	if r.dir == "" {
		return 0, nil
	}
	return dirBytes(r.dir)
}

// checkpoints reads simd_checkpoints_total through WriteMetrics.
func (r *simdRig) checkpoints() (int64, error) {
	var buf bytes.Buffer
	if err := r.svc.WriteMetrics(&buf); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "simd_checkpoints_total "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("simd_checkpoints_total missing from /metrics")
}

func clientMixes(seed uint64, shapes []shape, seeds int) []*mix {
	return []*mix{newMix(seed, 101, shapes, seeds), newMix(seed, 102, shapes, seeds)}
}

func runSimdStream(ctx context.Context, o options, rep *report) error {
	pick := rand.New(rand.NewPCG(o.Seed, 2))
	warm := warmMix(simdShapes, simdSeedsPerJob)
	journal := filepath.Join(o.Scratch, "simd-journal")
	if o.Trace {
		return traceSimdStream(ctx, o, journal, warm, pick, rep)
	}
	rig, err := repeatSetup(rep, o.setupReps(5), func() (*simdRig, error) {
		return setupSimd(ctx, journal, nil, warm)
	}, (*simdRig).close)
	if err != nil {
		return err
	}
	p, err := rig.pass(ctx, o.Seconds, clientMixes(o.Seed, simdShapes, simdSeedsPerJob), nil)
	rig.close()
	if err != nil {
		return err
	}
	t, err := checkJobs(ctx, p.jobs, pick, rep)
	if err != nil {
		return err
	}
	return rep.endToEndMetrics(p.ws, t.seeds, t.agentRounds, t.latencies)
}

// traceSimdStream runs three passes on fresh daemons, each submitting the
// same job sequence: untraced with the journal on (the tracing-overhead
// baseline), traced with the journal on, and traced with the journal off,
// whose run-time difference is the journal's cost per job.
func traceSimdStream(ctx context.Context, o options, journal string, warm *mix, pick *rand.Rand, rep *report) error {
	third := o.Seconds / 3
	passes := make([]*simdPass, 3)
	tracers := []*tracer{nil, newTracer(true), newTracer(true)}
	for i, tr := range tracers {
		dir := journal
		if i == 2 {
			dir = ""
		}
		rig, err := setupSimd(ctx, dir, tr, warm)
		if err != nil {
			return err
		}
		passes[i], err = rig.pass(ctx, third, clientMixes(o.Seed, simdShapes, simdSeedsPerJob), tr)
		rig.close()
		if err != nil {
			return err
		}
	}
	totals := make([]jobTotals, 3)
	for i, p := range passes {
		var err error
		if totals[i], err = checkJobs(ctx, p.jobs, pick, rep); err != nil {
			return err
		}
		if totals[i].seeds == 0 {
			return fmt.Errorf("pass %d completed no job", i)
		}
	}
	plain, on := totals[0], totals[1]
	tr := tracers[1]
	rep.allocMetrics(passes[0].ws, plain.seeds)
	rep.p50("service.submit_ms", tr.durationsMS("service.submit"))
	rep.p50("service.queue_wait_ms", tr.durationsMS("service.queue"))
	rep.p50("service.run_ms", tr.durationsMS("service.run"))
	rep.p50("service.stream_tail_ms", tr.durationsMS("service.stream_tail"))
	for _, k := range []string{"submit", "stream", "get"} {
		rep.p50("service.handler_ms."+k, tr.durationsMS("service.handler."+k))
	}
	seeds := float64(on.seeds)
	rep.Metrics["service.stream_events_per_seed"] = float64(on.events) / seeds
	rep.Metrics["service.stream_bytes_per_seed"] = float64(passes[1].streamBytes) / seeds
	rep.Metrics["service.stream_delivered_frac"] = float64(on.roundEvents) / float64(on.rounds)
	rep.Metrics["service.journal_bytes_per_seed"] = float64(passes[1].journalBytes) / seeds
	rep.Metrics["service.checkpoints_per_job"] = float64(passes[1].checkpoints) / float64(len(passes[1].jobs))
	rep.Metrics["service.journal_ms_per_job"] = median(tr.durationsMS("service.run")) - median(tracers[2].durationsMS("service.run"))
	rep.Samples["service.journal_ms_per_job"] = len(tracers[2].durationsMS("service.run"))
	rep.Metrics["trace.overhead_frac"] = rate(plain.seeds, passes[0].ws)/rate(on.seeds, passes[1].ws) - 1
	if err := finishTrace(o, tr, rep, ""); err != nil {
		return err
	}
	return finishTrace(o, tracers[2], rep, "-nojournal")
}

func rate(n int, ws windowStats) float64 { return float64(n) / ws.elapsed.Seconds() }
