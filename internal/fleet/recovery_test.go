package fleet

// Coordinator restart-recovery tests: lease adoption from journal replay
// (banked results never re-lease), the 503 gates while replay or adoption is
// in progress, the heartbeat cancel grace for leases about to be adopted,
// and the duplicate-storm idempotency of the result endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"noisypull/internal/service"
)

// fakeBinding stands in for the service's durability layer.
type fakeBinding struct {
	mu       sync.Mutex
	replayed bool
	jobs     map[string]service.State
	recs     []service.LeaseRecord
	nodeRecs []service.LeaseRecord
}

func (b *fakeBinding) NodeRecords() []service.LeaseRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nodeRecs
}

func (b *fakeBinding) AppendLease(rec service.LeaseRecord) {
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	b.mu.Unlock()
}

func (b *fakeBinding) Replayed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replayed
}

func (b *fakeBinding) JobState(id string) (service.State, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.jobs[id]
	return st, ok
}

func (b *fakeBinding) setReplayed(v bool) {
	b.mu.Lock()
	b.replayed = v
	b.mu.Unlock()
}

func (b *fakeBinding) records(op service.LeaseOp) []service.LeaseRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []service.LeaseRecord
	for _, r := range b.recs {
		if r.Op == op {
			out = append(out, r)
		}
	}
	return out
}

// postWire posts one wire request, returning the status and decoding a 200
// body into out.
func postWire(t *testing.T, url string, in, out any) (status int, body string) {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// startDispatch launches c.Dispatch in the background, returning a channel
// with the emitted results once it finishes.
func startDispatch(t *testing.T, c *Coordinator, job service.DispatchJob) (results <-chan []service.SeedResult, errs <-chan error) {
	t.Helper()
	resCh := make(chan []service.SeedResult, 1)
	errCh := make(chan error, 1)
	go func() {
		var out []service.SeedResult
		err := c.Dispatch(context.Background(), job, func(sr service.SeedResult) {
			out = append(out, sr)
		})
		resCh <- out
		errCh <- err
	}()
	return resCh, errCh
}

func waitDispatched(t *testing.T, c *Coordinator, jobID string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		_, ok := c.dispatches[jobID]
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never dispatched", jobID)
}

func TestDispatchAdoptsJournaledLeases(t *testing.T) {
	b := &fakeBinding{replayed: true, jobs: map[string]service.State{"j-000001": service.StateRunning}}
	c := NewCoordinator(fastFleet())
	defer c.Close()
	c.Bind(b)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	job := service.DispatchJob{
		ID: "j-000001", Spec: spec, Fingerprint: spec.Fingerprint(),
		Seeds: []uint64{1, 2, 3, 4, 5, 6},
		Records: []service.LeaseRecord{
			{Op: service.LeaseGrant, Lease: "l-j-000001-000", Node: "wb", Seeds: []uint64{1, 2}},
			{Op: service.LeaseResult, Lease: "l-j-000001-000", Node: "wb", Results: []service.SeedResult{sr(1), sr(2)}},
			{Op: service.LeaseGrant, Lease: "l-j-000001-001", Node: "wa", Seeds: []uint64{3, 4}, Attempt: 1},
			{Op: service.LeaseGrant, Lease: "l-j-000001-002", Node: "wc", Seeds: []uint64{5}},
			{Op: service.LeaseRequeue, Lease: "l-j-000001-002", Seeds: []uint64{5}},
		},
	}
	resCh, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)

	if got := c.adopted.Load(); got != 2 {
		t.Fatalf("adopted = %d, want 2", got)
	}
	// Banked seeds must never appear in a fresh lease.
	if got := c.redispatched.Load(); got != 0 {
		t.Fatalf("redispatched = %d, want 0", got)
	}
	// Adoption re-journals grants so a second crash replays directly.
	grants := b.records(service.LeaseGrant)
	if len(grants) != 2 || grants[0].Lease != "l-j-000001-001" || grants[1].Lease != "l-j-000001-002" {
		t.Fatalf("adoption grants journaled = %+v", grants)
	}

	for _, id := range []string{"wa", "wb"} {
		var rr RegisterResponse
		if st, body := postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: id}, &rr); st != 200 {
			t.Fatalf("register %s: %d %s", id, st, body)
		}
	}

	// The ownerless adopted lease is first in the pending queue; the fresh
	// lease for the unclaimed remainder {6} is numbered past the adopted max.
	var pr PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wb"}, &pr)
	if pr.Lease == nil || pr.Lease.ID != "l-j-000001-002" {
		t.Fatalf("first poll = %+v, want adopted pending lease l-j-000001-002", pr.Lease)
	}
	var pr2 PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wb"}, &pr2)
	if pr2.Lease == nil || pr2.Lease.ID != "l-j-000001-003" {
		t.Fatalf("second poll = %+v, want fresh lease l-j-000001-003", pr2.Lease)
	}
	if got := pr2.Lease.Seeds; len(got) != 1 || got[0] != 6 {
		t.Fatalf("fresh lease seeds = %v, want [6]", got)
	}

	// The pre-crash owner delivers on its adopted active lease: accepted as a
	// late delivery, not a duplicate.
	var res ResultResponse
	postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wa", LeaseID: "l-j-000001-001",
		Results: []service.SeedResult{sr(3), sr(4)},
	}, &res)
	if res.Merged != 2 || res.Duplicates != 0 {
		t.Fatalf("late delivery = %+v", res)
	}
	if got := c.lateDeliveries.Load(); got != 2 {
		t.Fatalf("lateDeliveries = %d, want 2", got)
	}

	postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wb", LeaseID: "l-j-000001-002", Results: []service.SeedResult{sr(5)},
	}, nil)
	postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wb", LeaseID: "l-j-000001-003", Results: []service.SeedResult{sr(6)},
	}, nil)

	got := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("emitted %d results, want 6", len(got))
	}
	for i, sr := range got {
		if sr.Seed != uint64(i+1) {
			t.Fatalf("emit order broken at %d: %+v", i, got)
		}
	}
}

// TestRestartedCoordinatorNumbersPastDeliveredLeases restarts a
// journal-backed coordinator over a job whose lease l-j-000001-001 (seeds
// 3, 4) was delivered by wb and banked before the crash, while
// l-j-000001-000 (seeds 1, 2) was still in flight on wa. The first fresh
// lease must not reuse a journaled id: wb's spooled redelivery of
// l-j-000001-001 is then acknowledged as duplicates, instead of landing on
// a fresh range, failing its check and quarantining an honest node.
func TestRestartedCoordinatorNumbersPastDeliveredLeases(t *testing.T) {
	dir := t.TempDir()
	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf", Seeds: []uint64{1, 2, 3, 4, 5, 6}}
	var journal bytes.Buffer
	for _, rec := range []map[string]any{
		{"t": "submit", "job": "j-000001", "spec": spec},
		{"t": "lease", "job": "j-000001", "op": "grant", "lease": "l-j-000001-000", "node": "wa", "seeds": []uint64{1, 2}},
		{"t": "lease", "job": "j-000001", "op": "grant", "lease": "l-j-000001-001", "node": "wb", "seeds": []uint64{3, 4}},
		{"t": "lease", "job": "j-000001", "op": "result", "lease": "l-j-000001-001", "node": "wb", "seeds": []uint64{3, 4},
			"results": []service.SeedResult{sr(3), sr(4)}},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, "simd-journal.ndjson"), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(fastFleet())
	defer c.Close()
	svc, err := service.Open(service.Config{Workers: 1, JournalDir: dir, Dispatcher: c})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c.Bind(svc)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	waitDispatched(t, c, "j-000001")

	for _, id := range []string{"wa", "wb", "wc"} {
		if st, body := postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: id}, nil); st != http.StatusOK {
			t.Fatalf("register %s: %d %s", id, st, body)
		}
	}
	var pr PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wc"}, &pr)
	if pr.Lease == nil {
		t.Fatal("poll after the restart granted no lease")
	}
	if idx, ok := leaseIndex("j-000001", pr.Lease.ID); !ok || idx < 2 {
		t.Fatalf("first fresh lease %s reuses a journaled lease id", pr.Lease.ID)
	}

	var res ResultResponse
	st, body := postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wb", LeaseID: "l-j-000001-001", Results: []service.SeedResult{sr(3), sr(4)},
	}, &res)
	if st != http.StatusOK || res.Duplicates != 2 || res.Merged != 0 {
		t.Fatalf("redelivery of the banked lease: %d %s %+v, want 2 duplicates", st, body, res)
	}
	if got := c.attFailures.Load(); got != 0 {
		t.Fatalf("attestation failures = %d after an honest redelivery", got)
	}
	for _, n := range c.Nodes() {
		if n.ID == "wb" && n.Quarantined {
			t.Fatalf("honest node wb quarantined: %+v", n)
		}
	}

	postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wa", LeaseID: "l-j-000001-000", Results: []service.SeedResult{sr(1), sr(2)},
	}, nil)
	fresh := ResultRequest{NodeID: "wc", LeaseID: pr.Lease.ID}
	for _, s := range pr.Lease.Seeds {
		fresh.Results = append(fresh.Results, sr(s))
	}
	postWire(t, ts.URL+PathResult, fresh, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.Get("j-000001")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateDone {
			want := []service.SeedResult{sr(1), sr(2), sr(3), sr(4), sr(5), sr(6)}
			if !reflect.DeepEqual(st.Results, want) {
				t.Fatalf("results = %+v, want %+v", st.Results, want)
			}
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %s (%s), want done", st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.redispatched.Load(); got != 0 {
		t.Fatalf("redispatched = %d, want 0", got)
	}
}

// TestResultDupStormIsIdempotent fires every lease's delivery three times,
// out of order: the merged output must be byte-identical to a clean run and
// the duplicate counter must account for every redundant result.
func TestResultDupStormIsIdempotent(t *testing.T) {
	c := NewCoordinator(fastFleet()) // LeaseSeeds=2
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	job := service.DispatchJob{
		ID: "j-000007", Spec: spec, Fingerprint: spec.Fingerprint(),
		Seeds: []uint64{1, 2, 3, 4, 5, 6},
	}
	resCh, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)

	var rr RegisterResponse
	postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wa"}, &rr)

	// Ranges are cut lazily: three polls cut and grant l-j-000007-00{0,1,2}
	// covering {1,2},{3,4},{5,6}.
	for i := 0; i < 3; i++ {
		var pr PollResponse
		postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pr)
		if pr.Lease == nil {
			t.Fatalf("poll %d granted no lease", i)
		}
	}

	// Deliver tail-first, three times each, interleaved.
	deliver := func(leaseID string, seeds ...uint64) {
		req := ResultRequest{NodeID: "wa", LeaseID: leaseID}
		for _, s := range seeds {
			req.Results = append(req.Results, sr(s))
		}
		req.Seal()
		if st, body := postWire(t, ts.URL+PathResult, req, nil); st != 200 {
			t.Fatalf("deliver %s: %d %s", leaseID, st, body)
		}
	}
	order := []struct {
		id    string
		seeds []uint64
	}{
		{"l-j-000007-002", []uint64{5, 6}},
		{"l-j-000007-000", []uint64{1, 2}},
		{"l-j-000007-001", []uint64{3, 4}},
	}
	for round := 0; round < 3; round++ {
		for _, d := range order {
			deliver(d.id, d.seeds...)
		}
	}

	got := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	want := []service.SeedResult{sr(1), sr(2), sr(3), sr(4), sr(5), sr(6)}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("dup-storm output not byte-identical:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// Rounds 2 and 3 redelivered all 6 results each.
	if d := c.duplicates.Load(); d != 12 {
		t.Fatalf("duplicates = %d, want 12", d)
	}
	if m := c.merged.Load(); m != 6 {
		t.Fatalf("merged = %d, want 6", m)
	}
}

// TestWireGatedDuringReplay pins the 503 + Retry-After behavior of the fleet
// endpoints while journal replay is still running, and that the service
// client maps the body to ErrNotReady (so workers treat it as a transient
// outage, not a dead coordinator).
func TestWireGatedDuringReplay(t *testing.T) {
	b := &fakeBinding{replayed: false}
	c := NewCoordinator(fastFleet())
	defer c.Close()
	c.Bind(b)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Registration is ungated: it hands out no work.
	var rr RegisterResponse
	if st, body := postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wa"}, &rr); st != 200 {
		t.Fatalf("register during replay: %d %s", st, body)
	}

	for _, path := range []string{PathPoll, PathHeartbeat, PathResult} {
		req, _ := json.Marshal(PollRequest{NodeID: "wa"})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during replay: %d %s", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s during replay: no Retry-After", path)
		}
		if !bytes.Contains(body, []byte("not ready")) {
			t.Fatalf("%s during replay: body %q won't map to ErrNotReady", path, body)
		}
	}

	b.setReplayed(true)
	var pr PollResponse
	if st, body := postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pr); st != 200 {
		t.Fatalf("poll after replay: %d %s", st, body)
	}
}

// TestAdoptionGraceWindows covers the gap between journal replay finishing
// and the recovered job being re-dispatched: heartbeats must not cancel the
// job's leases, and result deliveries must get a retryable 503 instead of a
// duplicate ack that would discard computed work.
func TestAdoptionGraceWindows(t *testing.T) {
	b := &fakeBinding{replayed: true, jobs: map[string]service.State{
		"j-000003": service.StateRunning, // recovering, not yet dispatched
		"j-000004": service.StateDone,    // terminal: its leases are stale
	}}
	c := NewCoordinator(fastFleet())
	defer c.Close()
	c.Bind(b)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var rr RegisterResponse
	postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wa"}, &rr)

	// Heartbeat: the recovering job's lease is spared, everything else is
	// cancelled as usual.
	var hb HeartbeatResponse
	postWire(t, ts.URL+PathHeartbeat, HeartbeatRequest{
		NodeID: "wa",
		Leases: []string{"l-j-000003-000", "l-j-000004-000", "l-j-999999-000", "garbage"},
	}, &hb)
	want := []string{"l-j-000004-000", "l-j-999999-000", "garbage"}
	if len(hb.Cancel) != len(want) {
		t.Fatalf("cancel = %v, want %v", hb.Cancel, want)
	}
	for i, id := range want {
		if hb.Cancel[i] != id {
			t.Fatalf("cancel = %v, want %v", hb.Cancel, want)
		}
	}

	// Result delivery for the recovering job: 503 + Retry-After (the worker
	// spools and redelivers after adoption).
	data, _ := json.Marshal(ResultRequest{
		NodeID: "wa", LeaseID: "l-j-000003-000", Results: []service.SeedResult{sr(1)},
	})
	resp, err := http.Post(ts.URL+PathResult, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("delivery during adoption: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("not ready")) {
		t.Fatalf("delivery during adoption: body %q won't map to ErrNotReady", body)
	}
	if got := c.duplicates.Load(); got != 0 {
		t.Fatalf("duplicates = %d after a gated delivery, want 0", got)
	}

	// Delivery for a terminal job's lease: plain duplicate ack, counted.
	var res ResultResponse
	postWire(t, ts.URL+PathResult, ResultRequest{
		NodeID: "wa", LeaseID: "l-j-000004-000", Results: []service.SeedResult{sr(1)},
	}, &res)
	if res.Duplicates != 1 {
		t.Fatalf("stale delivery = %+v, want 1 duplicate", res)
	}
	if got := c.duplicates.Load(); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
}

// TestLeaseAbandonNamesSeedRange pins the attempt-cap failure message and
// counters: the error must name the offending seed range so an operator can
// find the poisonous lease without grepping the journal.
func TestLeaseAbandonNamesSeedRange(t *testing.T) {
	b := &fakeBinding{replayed: true, jobs: map[string]service.State{}}
	cfg := fastFleet()
	cfg.MaxLeaseAttempts = 2
	c := NewCoordinator(cfg)
	defer c.Close()
	c.Bind(b)

	// Two seeds with LeaseSeeds=2 → exactly one lease, so each next() pops it.
	job := service.DispatchJob{
		ID: "j-000009", Spec: service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"},
		Seeds: []uint64{7, 8},
	}
	job.Fingerprint = job.Spec.Fingerprint()
	_, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)

	// Walk the lease to its attempt cap directly (the e2e covers the timing
	// path; this pins the message and bookkeeping).
	c.mu.Lock()
	l := c.grantLocked("wa", time.Now())
	c.requeueAll([]*lease{l}, "node wa died")
	l = c.grantLocked("wa", time.Now())
	c.requeueAll([]*lease{l}, "lease deadline expired")
	c.mu.Unlock()

	err := <-errCh
	if err == nil {
		t.Fatal("job survived the attempt cap")
	}
	for _, wantSub := range []string{"seeds 7..8", "2 of them", "abandoned after 2 attempts", "lease deadline expired"} {
		if !bytes.Contains([]byte(err.Error()), []byte(wantSub)) {
			t.Fatalf("abandon error %q missing %q", err, wantSub)
		}
	}
	if got := c.abandoned.Load(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	if recs := b.records(service.LeaseAbandon); len(recs) != 1 || recs[0].Lease != "l-j-000009-000" {
		t.Fatalf("abandon records = %+v", recs)
	}
}
