package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisypull"
	"noisypull/internal/service"
)

// shape is one job spec of a client mix, without seeds, and how many jobs
// in a row a client submits once it picks it.
type shape struct {
	spec  service.JobSpec
	block int
}

// mix generates one client's job sequence from the workload seed. The
// client walks the shapes in a fresh seeded order each cycle and repeats
// each shape block times, as a parameter sweep does; every cycle holds the
// same number of jobs of each shape, so a run's job mix, and with it its
// throughput, does not drift with the seed.
type mix struct {
	rng    *rand.Rand
	shapes []shape
	seeds  int // seeds per job
	queue  []int
}

func newMix(seed, stream uint64, shapes []shape, seeds int) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, stream)), shapes: shapes, seeds: seeds}
}

// warmMix yields each shape once per len(shapes) jobs, for the warm-up job
// per shape. Its seed is fixed, so every run's set-up does the same work
// and setup_s does not vary with the workload seed.
func warmMix(shapes []shape, seeds int) *mix {
	once := make([]shape, len(shapes))
	for i, s := range shapes {
		once[i] = shape{spec: s.spec, block: 1}
	}
	return newMix(0, 100, once, seeds)
}

func (m *mix) next() service.JobSpec {
	if len(m.queue) == 0 {
		for _, s := range m.rng.Perm(len(m.shapes)) {
			for k := 0; k < m.shapes[s].block; k++ {
				m.queue = append(m.queue, s)
			}
		}
	}
	spec := m.shapes[m.queue[0]].spec
	m.queue = m.queue[1:]
	spec.Seeds = make([]uint64, m.seeds)
	for i := range spec.Seeds {
		spec.Seeds[i] = 1 + m.rng.Uint64N(1<<40)
	}
	return spec
}

// server serves a handler on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// countingTransport counts the bytes of every NDJSON stream response.
type countingTransport struct {
	base  *http.Transport
	bytes *atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/stream") {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.bytes}
	}
	return resp, err
}

func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newJobClient returns a simd client with retries disabled, so a refused
// submission (429 or 503) counts as an error. A non-nil streamBytes counts
// the stream bytes it receives.
func newJobClient(url string, streamBytes *atomic.Int64) *service.Client {
	base := &http.Transport{MaxIdleConnsPerHost: 4}
	var rt http.RoundTripper = base
	if streamBytes != nil {
		rt = &countingTransport{base: base, bytes: streamBytes}
	}
	return &service.Client{BaseURL: url, HTTPClient: &http.Client{Transport: rt}, MaxRetries: -1}
}

func closeClients(cs []*service.Client) {
	for _, c := range cs {
		c.HTTPClient.CloseIdleConnections()
	}
}

// timeJobAPI wraps the job API with a span per submit, stream and get
// request.
func timeJobAPI(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs")
		if !ok {
			return
		}
		id, isStream := strings.CutSuffix(strings.TrimPrefix(rest, "/"), "/stream")
		kind := ""
		switch {
		case r.Method == http.MethodPost && rest == "":
			kind = "submit"
		case r.Method == http.MethodGet && isStream:
			kind = "stream"
		case r.Method == http.MethodGet && id != "":
			kind = "get"
		default:
			return
		}
		tr.add(0, "service.handler."+kind, id, t0, time.Now())
	})
}

// jobRun is one job as its client saw it.
type jobRun struct {
	spec        service.JobSpec
	final       *service.JobStatus // terminal status from the stream
	fetched     *service.JobStatus // GET after the terminal line
	latency     time.Duration      // submit → terminal line
	events      int                // stream lines before the terminal one
	roundEvents int
	err         error
}

// doJob submits one job, streams its NDJSON to the terminal line, then
// fetches the stored job.
func doJob(ctx context.Context, cl *service.Client, spec service.JobSpec, tr *tracer) jobRun {
	jr := jobRun{spec: spec}
	root := tr.id()
	t0 := time.Now()
	st, err := cl.Submit(ctx, spec)
	t1 := time.Now()
	if err != nil {
		jr.err = fmt.Errorf("submit: %w", err)
		return jr
	}
	tr.setRoot(st.ID, root)
	tr.add(root, "service.submit", st.ID, t0, t1)
	jr.final, err = cl.Stream(ctx, st.ID, func(ev service.Event) error {
		jr.events++
		if ev.Type == "round" {
			jr.roundEvents++
		}
		return nil
	})
	t2 := time.Now()
	if err != nil {
		jr.err = fmt.Errorf("stream %s: %w", st.ID, err)
		return jr
	}
	jr.latency = t2.Sub(t0)
	if tr != nil {
		tr.add(root, "client.stream", st.ID, t1, t2)
		if f := jr.final; f.Started != nil && f.Finished != nil {
			tr.add(root, "service.queue", st.ID, f.Created, *f.Started)
			tr.add(root, "service.run", st.ID, *f.Started, *f.Finished)
			tr.add(root, "service.stream_tail", st.ID, *f.Finished, t2)
		}
		tr.record(root, 0, "client.job", st.ID, t0, t2)
	}
	jr.fetched, err = cl.Job(ctx, st.ID)
	tr.add(0, "client.get", st.ID, t2, time.Now())
	if err != nil {
		jr.err = fmt.Errorf("get %s: %w", st.ID, err)
	}
	return jr
}

// runClients runs one closed loop per client: submit, stream to the
// terminal line, fetch, then the next job, until the deadline. It returns
// once every client has finished its last job.
func runClients(ctx context.Context, clients []*service.Client, mixes []*mix, deadline time.Time, tr *tracer) []jobRun {
	out := make([][]jobRun, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				out[c] = append(out[c], doJob(ctx, clients[c], mixes[c].next(), tr))
			}
		}(c)
	}
	wg.Wait()
	var all []jobRun
	for _, jobs := range out {
		all = append(all, jobs...)
	}
	return all
}

// jobTotals sums what a set of checked jobs completed.
type jobTotals struct {
	jobs        int // jobs done with every seed correct
	seeds       int // their seeds
	agentRounds float64
	rounds      int // Σ rounds run
	events      int // stream lines received
	roundEvents int
	latencies   []float64 // submit → terminal line, ms
}

// mustConverge names the protocols whose every trial must converge.
func mustConverge(protocol string) bool { return protocol == "sf" || protocol == "ssf" }

// checkJobs counts every submitted seed as an attempted trial and fails
// the seeds of jobs that were refused, failed, incomplete or wrong. Each
// SF and SSF trial must have converged, the fetched job must match its
// stream, and one sampled seed per job is re-run through noisypull.Run on
// the spec's Build() config and must give the identical SeedResult. The
// re-runs happen here, after the timed window.
func checkJobs(ctx context.Context, jobs []jobRun, pick *rand.Rand, rep *report) (jobTotals, error) {
	var t jobTotals
	for _, jr := range jobs {
		n := len(jr.spec.Seeds)
		rep.Attempted += n
		switch {
		case jr.err != nil:
			refused := errors.Is(jr.err, service.ErrQueueFull) || errors.Is(jr.err, service.ErrDraining) || errors.Is(jr.err, service.ErrNotReady)
			rep.fail(n, "%s job (refused=%v): %v", jr.spec.Protocol, refused, jr.err)
			continue
		case jr.final.State != service.StateDone:
			rep.fail(n, "job %s ended %s: %s", jr.final.ID, jr.final.State, jr.final.Error)
			continue
		case len(jr.final.Results) != n:
			rep.fail(n, "job %s returned %d results for %d seeds", jr.final.ID, len(jr.final.Results), n)
			continue
		case !reflect.DeepEqual(jr.final.Results, jr.fetched.Results):
			rep.fail(n, "job %s: GET results differ from the stream's terminal status", jr.final.ID)
			continue
		}
		bad := 0
		for i, sr := range jr.final.Results {
			switch {
			case sr.Seed != jr.spec.Seeds[i]:
				rep.fail(1, "job %s result %d is for seed %d, want %d", jr.final.ID, i, sr.Seed, jr.spec.Seeds[i])
				bad++
			case mustConverge(jr.spec.Protocol) && !sr.Converged:
				rep.fail(1, "job %s: %s seed %d did not converge in %d rounds", jr.final.ID, jr.spec.Protocol, sr.Seed, sr.Rounds)
				bad++
			}
		}
		ok, err := rerunMatches(ctx, jr, pick.IntN(n), rep)
		if err != nil {
			return t, err
		}
		if !ok {
			bad++
		}
		if bad > 0 {
			continue
		}
		t.jobs++
		t.seeds += n
		for _, sr := range jr.final.Results {
			t.rounds += sr.Rounds
			t.agentRounds += float64(jr.spec.N) * float64(sr.Rounds)
		}
		t.events += jr.events
		t.roundEvents += jr.roundEvents
		t.latencies = append(t.latencies, ms(jr.latency))
	}
	return t, nil
}

// rerunMatches re-runs result i of a job in-process and reports whether
// the job's result matches the fresh run.
func rerunMatches(ctx context.Context, jr jobRun, i int, rep *report) (bool, error) {
	got := jr.final.Results[i]
	cfg, err := jr.spec.Build()
	if err != nil {
		rep.fail(1, "job %s: spec no longer builds: %v", jr.final.ID, err)
		return false, nil
	}
	cfg.Seed = got.Seed
	res, err := noisypull.RunContext(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		rep.fail(1, "job %s seed %d: check run: %v", jr.final.ID, got.Seed, err)
		return false, nil
	}
	if want := service.MakeSeedResult(got.Seed, res); !reflect.DeepEqual(want, got) {
		rep.fail(1, "job %s seed %d: service returned %+v, a fresh run %+v", jr.final.ID, got.Seed, got, want)
		return false, nil
	}
	return true, nil
}
