package fleet

// In-process chaos integration: the full fleet loop (service + coordinator +
// workers) with deterministic wire faults injected on both sides — the
// worker's HTTP transport (drop, delay, duplicate, corrupt) and the
// coordinator's fleet endpoints (drop, delay). The merged output must stay
// bit-identical to a clean single-node run; that is the whole point of
// building the fleet on deterministic (config, seed) results. Partition
// windows are exercised by TestFleetSurvivesChaosAndKills in e2e_test.go
// (they stretch wall-clock too far for in-process runs).

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"noisypull/internal/chaos"
	"noisypull/internal/service"
)

func chaoticSpec(seed uint64) *chaos.Spec {
	return &chaos.Spec{
		Seed:    seed,
		Drop:    0.15,
		DelayP:  0.2,
		Delay:   5 * time.Millisecond,
		Dup:     0.15,
		Corrupt: 0.1,
	}
}

func TestFleetUnderChaosStaysBitIdentical(t *testing.T) {
	serverInj := chaos.New(chaoticSpec(7))
	coord := NewCoordinator(fastFleet())
	sc := service.Config{Workers: 2}
	sc.Dispatcher = coord
	svc, err := service.Open(sc)
	if err != nil {
		t.Fatal(err)
	}
	mux := svc.Handler()
	coord.RoutesWith(mux, serverInj.Middleware)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		svc.Close()
		coord.Close()
		ts.Close()
	})

	// Two workers, each with its own deterministic client-side fault stream.
	for i, seed := range []uint64{11, 13} {
		inj := chaos.New(chaoticSpec(seed))
		client := service.NewClient(ts.URL)
		client.HTTPClient = &http.Client{Transport: inj.Transport(http.DefaultTransport)}
		w := NewWorker(WorkerConfig{
			Coordinator: ts.URL,
			NodeID:      []string{"wa", "wb"}[i],
			Slots:       1,
			Client:      client,
			Logf:        t.Logf,
		})
		w.Start()
		t.Cleanup(w.Close)
	}

	spec := service.JobSpec{
		N: 300, H: 2, Sources1: 1, Delta: 0.2,
		Protocol: "sf", Seeds: []uint64{3, 1, 4, 15, 9, 2, 6, 5},
	}
	want := directResults(t, spec, spec.Seeds)

	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, svc, st.ID, 120*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("chaos fleet job ended %s (%s)", final.State, final.Error)
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("chaos results differ from single-node:\n got %+v\nwant %+v", final.Results, want)
	}
	if serverInj.Injected() == 0 {
		t.Error("server-side injector never fired — the test exercised nothing")
	}

	var sb strings.Builder
	if err := serverInj.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "simd_chaos_injected_total") {
		t.Errorf("chaos metrics missing:\n%s", sb.String())
	}
}

// TestWorkerSpoolsThroughCoordinatorOutage gates the result endpoint shut
// mid-job: deliveries spool on the worker and flush once the gate lifts, so
// the job completes without a re-lease recomputing the range.
func TestWorkerSpoolsThroughCoordinatorOutage(t *testing.T) {
	var gate struct {
		mu     chan struct{} // buffered-1 mutex so the mw stays trivially safe
		closed bool
	}
	gate.mu = make(chan struct{}, 1)
	gate.mu <- struct{}{}
	setGate := func(v bool) { <-gate.mu; gate.closed = v; gate.mu <- struct{}{} }
	isClosed := func() bool { <-gate.mu; v := gate.closed; gate.mu <- struct{}{}; return v }

	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathResult && isClosed() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"fleet: coordinator not ready (test gate)"}`, http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	}

	// Long lease TTL: the worker stops renewing a lease once it has finished
	// executing it, so with a short TTL the coordinator would requeue and
	// re-lease during the outage and the job could complete via recompute —
	// exactly the waste the spool exists to avoid. Spool delivery must be the
	// only way this job finishes.
	cfg := fastFleet()
	cfg.LeaseTTL = 5 * time.Minute
	cfg.NodeTTL = 5 * time.Minute
	coord := NewCoordinator(cfg)
	sc := service.Config{Workers: 1}
	sc.Dispatcher = coord
	svc, err := service.Open(sc)
	if err != nil {
		t.Fatal(err)
	}
	mux := svc.Handler()
	coord.RoutesWith(mux, mw)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		svc.Close()
		coord.Close()
		ts.Close()
	})

	w := NewWorker(WorkerConfig{
		Coordinator: ts.URL,
		NodeID:      "wa",
		Slots:       1,
		Logf:        t.Logf,
		RPCTimeout:  2 * time.Second,
	})
	w.Start()
	t.Cleanup(w.Close)

	setGate(true)
	spec := service.JobSpec{
		N: 200, H: 1, Sources1: 1, Delta: 0.2,
		Protocol: "sf", Seeds: []uint64{1, 2},
	}
	want := directResults(t, spec, spec.Seeds)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the worker computed and parked the delivery.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if q, _ := w.sp.stats(); q > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery never spooled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	setGate(false)
	final := waitJob(t, svc, st.ID, 60*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("job after outage ended %s (%s)", final.State, final.Error)
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("post-outage results differ:\n got %+v\nwant %+v", final.Results, want)
	}
	if n := coord.releases.Load(); n != 0 {
		t.Errorf("%d ranges re-leased during the outage", n)
	}
	// The coordinator finishes the job while it handles the flushed
	// delivery, before the worker's post returns and counts it, so wait for
	// the count instead of reading it once.
	deadline = time.Now().Add(10 * time.Second)
	for w.spoolDelivered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spool never delivered — the job completed via a re-lease instead")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpoolCountsOnlyRefusedDeliveries pins the spool's attempt rule: a
// coordinator that cannot take a delivery (503) costs the spooled entry no
// attempt, however often the flush retries, while one that answers and
// refuses it (400) costs an attempt per flush until the entry is dropped at
// maxSpoolAttempts.
func TestSpoolCountsOnlyRefusedDeliveries(t *testing.T) {
	spooled := func(t *testing.T, status int) *Worker {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"fixed test status"}`, status)
		}))
		t.Cleanup(ts.Close)
		w := NewWorker(WorkerConfig{Coordinator: ts.URL, NodeID: "wa", RPCTimeout: 2 * time.Second})
		t.Cleanup(w.Close)
		w.sp.push(&ResultRequest{NodeID: "wa", LeaseID: "l-j-000001-000", Results: []service.SeedResult{sr(1)}})
		return w
	}

	t.Run("unhealthy", func(t *testing.T) {
		w := spooled(t, http.StatusServiceUnavailable)
		for i := 0; i < 20; i++ {
			w.flushSpool()
		}
		e := w.sp.head()
		if e == nil || e.attempts != 0 {
			t.Fatalf("spooled entry after 20 flushes against a 503 = %+v, want still queued with 0 attempts", e)
		}
	})

	t.Run("refused", func(t *testing.T) {
		w := spooled(t, http.StatusBadRequest)
		for i := 0; i < maxSpoolAttempts-1; i++ {
			w.flushSpool()
		}
		if e := w.sp.head(); e == nil || e.attempts != maxSpoolAttempts-1 {
			t.Fatalf("spooled entry after %d refused flushes = %+v, want one attempt per flush", maxSpoolAttempts-1, e)
		}
		w.flushSpool()
		if q, _ := w.sp.stats(); q != 0 {
			t.Fatalf("spool holds %d entries after %d refusals, want the entry dropped", q, maxSpoolAttempts)
		}
		var sb strings.Builder
		if err := w.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		if v, ok := metricValue(sb.String(), "simd_fleet_worker_spool_dropped_total"); !ok || v != 1 {
			t.Fatalf("simd_fleet_worker_spool_dropped_total = %g, want 1", v)
		}
	})
}

func TestSpoolBoundsAndEviction(t *testing.T) {
	s := newSpool(2)
	r := func(id string) *ResultRequest { return &ResultRequest{LeaseID: id} }
	if s.push(r("a")) || s.push(r("b")) {
		t.Fatal("push within capacity reported eviction")
	}
	if !s.push(r("c")) {
		t.Fatal("overflow push did not evict")
	}
	if q, d := s.stats(); q != 2 || d != 1 {
		t.Fatalf("stats = (%d,%d), want (2,1)", q, d)
	}
	e := s.head()
	if e == nil || e.req.LeaseID != "b" {
		t.Fatalf("head = %+v, want lease b (a evicted)", e)
	}
	if !s.drop(e) {
		t.Fatal("drop(head) failed")
	}
	if s.drop(e) {
		t.Fatal("double drop succeeded")
	}
	e = s.head()
	s.abandon(e)
	if q, d := s.stats(); q != 0 || d != 2 {
		t.Fatalf("after abandon: stats = (%d,%d), want (0,2)", q, d)
	}
	if s.head() != nil {
		t.Fatal("head of empty spool != nil")
	}
}
