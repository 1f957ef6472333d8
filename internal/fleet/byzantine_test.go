package fleet

// Byzantine-tolerance tests: result attestation digests, shared-secret RPC
// auth, quorum verification with a lying node (split votes escalate, the
// majority's payload wins, the liar's reputation collapses into
// quarantine), journal-recovered quarantine, probation healing,
// throughput-sized lease cutting, and the idle-rate decay that feeds it.
// The child-process e2e at the bottom runs a real lying worker (-lie-spec)
// against a quorum coordinator and requires byte-identical output.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"noisypull/internal/service"
)

func TestAttestDigest(t *testing.T) {
	r := sr(7)
	a := Attest(&r, "fp-1", "build-1")
	if err := validAttestation(a); err != nil {
		t.Fatalf("Attest produced an invalid digest %q: %v", a, err)
	}
	if b := Attest(&r, "fp-1", "build-1"); b != a {
		t.Fatalf("Attest not deterministic: %s vs %s", a, b)
	}
	r2 := r
	r2.Rounds++
	if Attest(&r2, "fp-1", "build-1") == a {
		t.Fatal("digest blind to payload changes")
	}
	if Attest(&r, "fp-2", "build-1") == a {
		t.Fatal("digest blind to the fingerprint")
	}
	if Attest(&r, "fp-1", "build-2") == a {
		t.Fatal("digest blind to the build")
	}
	if AttestAll(nil, "fp", "b") != nil {
		t.Fatal("AttestAll(nil) != nil")
	}
	all := AttestAll([]service.SeedResult{sr(1), sr(2)}, "fp-1", "build-1")
	if len(all) != 2 || all[0] == all[1] {
		t.Fatalf("AttestAll = %v", all)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", attLen), strings.Repeat("A", attLen)} {
		if validAttestation(bad) == nil {
			t.Fatalf("validAttestation accepted %q", bad)
		}
	}
}

func TestFleetAuthRejectsUnsigned(t *testing.T) {
	cfg := fastFleet()
	cfg.Secret = "s3cret"
	c := NewCoordinator(cfg)
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	body, _ := json.Marshal(RegisterRequest{NodeID: "wa"})
	post := func(sign func(*http.Request, []byte)) int {
		req, err := http.NewRequest("POST", ts.URL+PathRegister, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if sign != nil {
			sign(req, body)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if st := post(nil); st != http.StatusUnauthorized {
		t.Fatalf("unsigned register = %d, want 401", st)
	}
	if st := post(Signer("wrong-secret")); st != http.StatusUnauthorized {
		t.Fatalf("wrong-secret register = %d, want 401", st)
	}
	if got := c.authFailures.Load(); got != 2 {
		t.Fatalf("authFailures = %d, want 2", got)
	}
	if st := post(Signer("s3cret")); st != http.StatusOK {
		t.Fatalf("signed register = %d, want 200", st)
	}
	if got := c.authFailures.Load(); got != 2 {
		t.Fatalf("authFailures after valid RPC = %d, want 2", got)
	}
	if Signer("") != nil {
		t.Fatal("Signer(\"\") should be nil (no auth)")
	}
	// A worker configured with the secret signs transparently.
	w := NewWorker(WorkerConfig{Coordinator: ts.URL, Secret: "s3cret"})
	if w.client.Sign == nil {
		t.Fatal("worker with Secret has no client signer")
	}
}

// TestQuorumSplitEscalatesAndQuarantines drives a -verify-seeds=2 range by
// hand: one honest and one lying vote split the quorum, the coordinator
// escalates with a third replica, the tie-breaking vote admits the honest
// payload, and the outvoted node is quarantined.
func TestQuorumSplitEscalatesAndQuarantines(t *testing.T) {
	cfg := fastFleet()
	cfg.VerifySeeds = 2
	c := NewCoordinator(cfg)
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	job := service.DispatchJob{
		ID: "j-000021", Spec: spec, Fingerprint: spec.Fingerprint(),
		Seeds: []uint64{1, 2},
	}
	resCh, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)

	for _, id := range []string{"wa", "wb", "wc"} {
		postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: id}, nil)
	}

	// The range cuts into two replicas; each node may hold at most one.
	var pa, pa2, pb PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pa)
	if pa.Lease == nil || pa.Lease.ID != "l-j-000021-000" {
		t.Fatalf("wa poll = %+v", pa.Lease)
	}
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pa2)
	if pa2.Lease != nil {
		t.Fatalf("wa got a second replica of its own range: %+v", pa2.Lease)
	}
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wb"}, &pb)
	if pb.Lease == nil || pb.Lease.ID != "l-j-000021-001" {
		t.Fatalf("wb poll = %+v", pb.Lease)
	}

	honest := []service.SeedResult{sr(1), sr(2)}
	lie := []service.SeedResult{sr(1), sr(2)}
	lie[0].Rounds++ // wb lies about seed 1, agrees on seed 2
	build := "test-build"
	deliver := func(node, leaseID string, results []service.SeedResult) *ResultResponse {
		req := ResultRequest{
			NodeID: node, LeaseID: leaseID, Results: results,
			Build: build, Atts: AttestAll(results, job.Fingerprint, build),
		}
		req.Seal()
		var res ResultResponse
		if st, body := postWire(t, ts.URL+PathResult, req, &res); st != 200 {
			t.Fatalf("deliver %s on %s: %d %s", node, leaseID, st, body)
		}
		return &res
	}

	// wa's delivery alone admits nothing (need 2 of 2 votes).
	if res := deliver("wa", "l-j-000021-000", honest); res.Merged != 0 {
		t.Fatalf("single vote admitted %d seeds", res.Merged)
	}
	// wb's split vote resolves seed 2 (both agree) and deadlocks seed 1:
	// all replicas delivered without a majority → a third replica is cut.
	deliver("wb", "l-j-000021-001", lie)
	if got := c.escalations.Load(); got != 1 {
		t.Fatalf("escalations = %d, want 1", got)
	}
	var pc PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wc"}, &pc)
	if pc.Lease == nil || pc.Lease.ID != "l-j-000021-002" {
		t.Fatalf("wc poll = %+v, want escalation replica", pc.Lease)
	}
	deliver("wc", "l-j-000021-002", honest)

	got := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, honest) {
		t.Fatalf("quorum admitted %+v, want the honest payload %+v", got, honest)
	}
	if a, d := c.agreements.Load(), c.disagreements.Load(); a != 5 || d != 1 {
		t.Fatalf("verdicts = %d agree / %d disagree, want 5/1", a, d)
	}
	var wb *NodeInfo
	for _, n := range c.Nodes() {
		if n.ID == "wb" {
			wb = &n
			break
		}
	}
	if wb == nil || !wb.Quarantined || wb.Quarantines != 1 || wb.Disagreements != 1 {
		t.Fatalf("outvoted node not quarantined: %+v", wb)
	}

	// Anything a quarantined node delivers is refused before lease lookup.
	req := ResultRequest{NodeID: "wb", LeaseID: "l-j-000021-000", Results: honest}
	data, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+PathResult, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("quarantined delivery = %d, want 403", resp.StatusCode)
	}
	if got := c.quarRejected.Load(); got != 1 {
		t.Fatalf("quarRejected = %d, want 1", got)
	}
}

// TestQuorumUnresolvedFailsJob drives a -verify-seeds=2 range whose votes
// never agree: every node delivers a different payload for the one seed.
// With attempts to spare, the coordinator escalates once and fails the job
// when no eligible node is left; at an attempt cap of 1 it fails on the
// first split without escalating.
func TestQuorumUnresolvedFailsJob(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxAttempts int
		escalations int64
	}{
		{"no-eligible-node", 5, 1},
		{"attempt-cap", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastFleet()
			cfg.VerifySeeds = 2
			cfg.MaxLeaseAttempts = tc.maxAttempts
			c := NewCoordinator(cfg)
			defer c.Close()
			mux := http.NewServeMux()
			c.Routes(mux)
			ts := httptest.NewServer(mux)
			defer ts.Close()

			spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
			job := service.DispatchJob{
				ID: "j-000024", Spec: spec, Fingerprint: spec.Fingerprint(),
				Seeds: []uint64{1},
			}
			_, errCh := startDispatch(t, c, job)
			waitDispatched(t, c, job.ID)
			for _, id := range []string{"wa", "wb", "wc"} {
				postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: id}, nil)
			}

			// Each node polls one replica and delivers its own payload.
			vote := func(node string, rounds int) {
				var pr PollResponse
				postWire(t, ts.URL+PathPoll, PollRequest{NodeID: node}, &pr)
				if pr.Lease == nil {
					t.Fatalf("%s polled no replica", node)
				}
				results := []service.SeedResult{sr(1)}
				results[0].Rounds = rounds
				req := ResultRequest{
					NodeID: node, LeaseID: pr.Lease.ID, Results: results,
					Build: "test-build", Atts: AttestAll(results, job.Fingerprint, "test-build"),
				}
				req.Seal()
				if st, body := postWire(t, ts.URL+PathResult, req, nil); st != http.StatusOK {
					t.Fatalf("deliver %s on %s: %d %s", node, pr.Lease.ID, st, body)
				}
			}
			vote("wa", 10)
			vote("wb", 11)
			if tc.escalations > 0 {
				vote("wc", 12)
			}

			select {
			case err := <-errCh:
				if err == nil || !strings.Contains(err.Error(), "quorum unresolved") {
					t.Fatalf("job ended with %v, want a quorum-unresolved failure", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("job still running after the votes ran out")
			}
			if got := c.escalations.Load(); got != tc.escalations {
				t.Fatalf("escalations = %d, want %d", got, tc.escalations)
			}
		})
	}
}

// TestAttestationSelfCheckFaultsDelivery covers the stale-fingerprint lie:
// a payload whose claimed digests were computed under the wrong fingerprint
// is rejected before merging and scores an attestation failure.
func TestAttestationSelfCheckFaultsDelivery(t *testing.T) {
	cfg := fastFleet()
	c := NewCoordinator(cfg)
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	job := service.DispatchJob{
		ID: "j-000022", Spec: spec, Fingerprint: spec.Fingerprint(),
		Seeds: []uint64{1, 2},
	}
	_, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)

	postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wa"}, nil)
	var pr PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pr)
	if pr.Lease == nil {
		t.Fatal("no lease granted")
	}

	results := []service.SeedResult{sr(1), sr(2)}
	req := ResultRequest{
		NodeID: "wa", LeaseID: pr.Lease.ID, Results: results,
		Build: "b1", Atts: AttestAll(results, "a-stale-fingerprint", "b1"),
	}
	req.Seal()
	data, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+PathResult, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("digests to")) {
		t.Fatalf("stale-fingerprint delivery = %d %s, want 400 with digest mismatch", resp.StatusCode, body)
	}
	if got := c.attFailures.Load(); got != 1 {
		t.Fatalf("attFailures = %d, want 1", got)
	}
	// One confirmed fault against a clean history quarantines immediately.
	for _, n := range c.Nodes() {
		if n.ID == "wa" && (!n.Quarantined || n.AttFailures != 1) {
			t.Fatalf("faulting node not quarantined: %+v", n)
		}
	}
	// The lease stays live: the deadline machinery owns its re-lease path.
	c.mu.Lock()
	live := c.lt.get(pr.Lease.ID) != nil
	c.mu.Unlock()
	if !live {
		t.Fatal("faulted delivery consumed the lease")
	}
	select {
	case err := <-errCh:
		t.Fatalf("job terminated on a node fault: %v", err)
	default:
	}
}

// TestDeliveryOutsideLeaseIsNodeFault: results not matching the leased
// range exactly are a reputation hit, not a merge error.
func TestDeliveryOutsideLeaseIsNodeFault(t *testing.T) {
	c := NewCoordinator(fastFleet())
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := service.JobSpec{N: 100, H: 1, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	job := service.DispatchJob{
		ID: "j-000023", Spec: spec, Fingerprint: spec.Fingerprint(),
		Seeds: []uint64{1, 2, 3, 4},
	}
	_, errCh := startDispatch(t, c, job)
	waitDispatched(t, c, job.ID)
	postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wa"}, nil)
	var pr PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wa"}, &pr)
	if pr.Lease == nil || len(pr.Lease.Seeds) != 2 {
		t.Fatalf("lease = %+v, want a 2-seed range", pr.Lease)
	}

	// In-job seeds, but not this lease's seeds.
	bad := ResultRequest{NodeID: "wa", LeaseID: pr.Lease.ID, Results: []service.SeedResult{sr(3), sr(4)}}
	data, _ := json.Marshal(bad)
	resp, err := http.Post(ts.URL+PathResult, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-lease delivery = %d, want 400", resp.StatusCode)
	}
	if got := c.attFailures.Load(); got != 1 {
		t.Fatalf("attFailures = %d, want 1", got)
	}
	select {
	case err := <-errCh:
		t.Fatalf("job terminated on a node fault: %v", err)
	default:
	}
}

func TestQuarantineAdoptedFromJournalAndHeals(t *testing.T) {
	b := &fakeBinding{replayed: true, jobs: map[string]service.State{},
		nodeRecs: []service.LeaseRecord{{Op: service.LeaseQuarantine, Node: "wl", Reason: "delivered a rejected result"}}}
	cfg := fastFleet()
	cfg.Probation = 60 * time.Millisecond
	c := NewCoordinator(cfg)
	defer c.Close()
	c.Bind(b)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	postWire(t, ts.URL+PathRegister, RegisterRequest{NodeID: "wl"}, nil)
	var pr PollResponse
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wl"}, &pr)
	if pr.Lease != nil {
		t.Fatal("journal-quarantined node polled work")
	}
	found := false
	for _, n := range c.Nodes() {
		if n.ID == "wl" {
			found = true
			if !n.Quarantined || n.AttFailEWMA < 0.5 {
				t.Fatalf("adopted quarantine state = %+v", n)
			}
		}
	}
	if !found {
		t.Fatal("quarantined node missing from the registry")
	}

	// Probation elapses: the next poll absolves (journaled) and halves the
	// failure EWMA instead of zeroing it.
	time.Sleep(80 * time.Millisecond)
	postWire(t, ts.URL+PathPoll, PollRequest{NodeID: "wl"}, &pr)
	for _, n := range c.Nodes() {
		if n.ID == "wl" && (n.Quarantined || n.AttFailEWMA != 0.25) {
			t.Fatalf("healed state = %+v", n)
		}
	}
	if recs := b.records(service.LeaseAbsolve); len(recs) != 1 || recs[0].Node != "wl" {
		t.Fatalf("absolve records = %+v", recs)
	}
}

func TestLeaseSizeFollowsThroughput(t *testing.T) {
	c := NewCoordinator(Config{LeaseSeeds: 4, LeaseTTL: 15 * time.Second})
	defer c.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reg.register(&RegisterRequest{NodeID: "wa"}, time.Now())
	if got := c.leaseSizeFor("unknown"); got != 4 {
		t.Fatalf("unknown node lease size = %d, want the LeaseSeeds default", got)
	}
	if got := c.leaseSizeFor("wa"); got != 4 {
		t.Fatalf("no-history lease size = %d, want the LeaseSeeds default", got)
	}
	// TTL/3 = 5s of work at the node's measured rate, clamped.
	n.rate = 1
	if got := c.leaseSizeFor("wa"); got != 5 {
		t.Fatalf("1 seed/s lease size = %d, want 5", got)
	}
	n.rate = 200
	if got := c.leaseSizeFor("wa"); got != 16 {
		t.Fatalf("fast-node lease size = %d, want the max clamp 4×LeaseSeeds = 16", got)
	}
	n.rate = 0.1
	if got := c.leaseSizeFor("wa"); got != 1 {
		t.Fatalf("slow-node lease size = %d, want the min clamp 1", got)
	}
}

func TestIdleNodeRateDecays(t *testing.T) {
	r := newRegistry(100 * time.Millisecond)
	t0 := time.Now()
	n := r.register(&RegisterRequest{NodeID: "wa"}, t0)
	n.recordResult(8, t0)
	n.recordResult(8, t0.Add(time.Second))
	if n.rate < 7 || n.rate > 9 {
		t.Fatalf("rate = %g, want ~8", n.rate)
	}
	// Still delivering recently: no decay.
	r.touch("wa", t0.Add(time.Second+50*time.Millisecond))
	r.sweep(t0.Add(time.Second + 50*time.Millisecond))
	if n.rate < 7 {
		t.Fatalf("rate decayed while fresh: %g", n.rate)
	}
	// Idle past the TTL: the gauge decays sweep by sweep and reaches zero
	// instead of holding its last value forever.
	for i := 0; i < 40 && n.rate > 0; i++ {
		r.sweep(t0.Add(time.Second + time.Duration(i+2)*200*time.Millisecond))
	}
	if n.rate != 0 {
		t.Fatalf("idle rate never decayed to 0, stuck at %g", n.rate)
	}
}

func TestVerifySampleDeterministic(t *testing.T) {
	cfg := fastFleet()
	cfg.VerifySeeds = 3
	cfg.VerifySample = 0.5
	c := NewCoordinator(cfg)
	defer c.Close()
	hits := 0
	for seed := uint64(0); seed < 200; seed++ {
		a := c.sampleHit("fp-x", seed)
		if b := c.sampleHit("fp-x", seed); b != a {
			t.Fatalf("sampleHit(%d) not deterministic", seed)
		}
		if a {
			hits++
		}
	}
	if hits < 60 || hits > 140 {
		t.Fatalf("0.5 sampling hit %d of 200 ranges", hits)
	}
	full := NewCoordinator(Config{VerifySeeds: 3}) // VerifySample defaults to 1
	defer full.Close()
	for seed := uint64(0); seed < 20; seed++ {
		if !full.sampleHit("fp-x", seed) {
			t.Fatal("VerifySample=1 skipped a range")
		}
	}
}

// startLyingWorker is startWorker with the Byzantine hook installed.
func (h *fleetHarness) startLyingWorker(t *testing.T, id string, slots int,
	lie func([]service.SeedResult, string) ([]service.SeedResult, string)) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{
		Coordinator: h.ts.URL,
		NodeID:      id,
		Slots:       slots,
		Lie:         lie,
		Logf:        t.Logf,
	})
	w.Start()
	t.Cleanup(w.Close)
	return w
}

// TestFleetQuorumOutvotesLiar is the in-process Byzantine integration: a
// 3-node fleet under -verify-seeds=3 where one node lies on every
// delivery. The job must finish byte-identical to a single-node run, the
// liar must end up quarantined, and no already-delivered seed may be
// re-dispatched.
func TestFleetQuorumOutvotesLiar(t *testing.T) {
	fc := fastFleet()
	fc.VerifySeeds = 3
	h := newFleetHarness(t, fc, service.Config{Workers: 2})
	h.startWorker(t, "wa", 2)
	h.startWorker(t, "wb", 2)
	h.startLyingWorker(t, "wl", 2, func(rs []service.SeedResult, fp string) ([]service.SeedResult, string) {
		for i := range rs {
			rs[i].Rounds += 7
			rs[i].Converged = !rs[i].Converged
		}
		return rs, fp
	})

	spec := service.JobSpec{
		N: 300, H: 2, Sources1: 1, Delta: 0.2,
		Protocol: "sf", Seeds: []uint64{3, 1, 4, 15, 9, 2, 6, 5},
	}
	want := directResults(t, spec, spec.Seeds)

	st, err := h.svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, h.svc, st.ID, 120*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("quorum job ended %s (%s)", final.State, final.Error)
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("results with a liar in the fleet differ from single-node:\n got %+v\nwant %+v", final.Results, want)
	}
	// The liar's last delivery can race job completion (a delivery landing
	// after the job is done scores no verdict), so give its earlier verdicts
	// a moment to settle rather than asserting instantly.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && h.coord.quarantines.Load() == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	var liar *NodeInfo
	for _, n := range h.coord.Nodes() {
		if n.ID == "wl" {
			liar = &n
			break
		}
	}
	if liar == nil || liar.Quarantines < 1 || liar.Disagreements < 1 {
		t.Fatalf("lying node never quarantined: %+v", liar)
	}
	if got := h.coord.redispatched.Load(); got != 0 {
		t.Fatalf("redispatched = %d, want 0", got)
	}

	m := scrapeMetrics(t, h.ts.URL)
	for _, frag := range []string{
		`simd_fleet_node_quarantined{node="wl"} 1`,
		`simd_fleet_quorum_votes_total{verdict="disagree"}`,
	} {
		if !strings.Contains(m, frag) {
			t.Errorf("metrics missing %q:\n%s", frag, m)
		}
	}
}

// TestFleetQuarantinesByzantineWorker is the OS-process Byzantine e2e: a
// real -lie-spec worker joins a -verify-seeds=3 -fleet-secret coordinator
// alongside two honest workers. An unsigned RPC must bounce with 401, the
// merged job must be byte-identical to the single-node control, the liar
// quarantined, and nothing re-dispatched.
func TestFleetQuarantinesByzantineWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin, err := buildSimd()
	if err != nil {
		t.Skipf("cannot build simd: %v", err)
	}

	secret := []string{"-fleet-secret", "byz-e2e-secret"}
	coord := startSimd(t, bin, append([]string{"-coordinator",
		"-lease-seeds", "2", "-lease-ttl", "4s", "-node-ttl", "4s",
		"-fleet-poll", "50ms", "-verify-seeds", "3"}, secret...)...)
	waitReady(t, coord.baseURL())
	startSimd(t, bin, append([]string{"-join", coord.baseURL(), "-node-id", "byz-a", "-worker-slots", "1"}, secret...)...)
	startSimd(t, bin, append([]string{"-join", coord.baseURL(), "-node-id", "byz-b", "-worker-slots", "1"}, secret...)...)
	wl := startSimd(t, bin, append([]string{"-join", coord.baseURL(), "-node-id", "byz-liar", "-worker-slots", "1",
		"-lie-spec", "seed=5,flip=1"}, secret...)...)
	waitMetric(t, coord.baseURL(), `simd_fleet_nodes{state="alive"} 3`, 15*time.Second)

	// An unsigned fleet RPC bounces before it is even decoded.
	resp, err := http.Post(coord.baseURL()+PathRegister, "application/json", strings.NewReader(`{"node_id":"intruder"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned register = %d, want 401", resp.StatusCode)
	}

	spec := service.JobSpec{
		N: 300, H: 2, Sources1: 1, Delta: 0.2,
		Protocol: "sf", Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	}
	want := directResults(t, spec, spec.Seeds)

	client := service.NewClient(coord.baseURL())
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, coord.out.String())
	}
	waitCtx, cancelWait := context.WithTimeout(ctx, 180*time.Second)
	defer cancelWait()
	final, err := client.Wait(waitCtx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v\ncoordinator:\n%s", err, coord.out.String())
	}
	if final.State != service.StateDone {
		t.Fatalf("Byzantine fleet job ended %s (%s)\ncoordinator:\n%s", final.State, final.Error, coord.out.String())
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Fatalf("results with a lying worker differ from single-node control:\n got %+v\nwant %+v", final.Results, want)
	}

	// The liar's last delivery can trail job completion; wait for its
	// verdicts to land before scraping the final state.
	waitMetricAtLeast(t, coord.baseURL(), "simd_fleet_quarantines_total", 1, 30*time.Second)
	m := scrapeMetrics(t, coord.baseURL())
	if v, ok := metricValue(m, "simd_fleet_nodes_quarantined"); !ok || v < 1 {
		t.Errorf("simd_fleet_nodes_quarantined = %g, want >= 1\ncoordinator:\n%s", v, coord.out.String())
	}
	if v, ok := metricValue(m, "simd_fleet_seeds_redispatched_total"); !ok || v != 0 {
		t.Errorf("simd_fleet_seeds_redispatched_total = %g, want 0", v)
	}
	if v, ok := metricValue(m, "simd_fleet_auth_failures_total"); !ok || v < 1 {
		t.Errorf("simd_fleet_auth_failures_total = %g, want >= 1 after the unsigned register", v)
	}
	if !strings.Contains(m, `simd_fleet_node_quarantined{node="byz-liar"} 1`) {
		t.Errorf("liar not quarantined in /metrics:\n%s", m)
	}
	if !strings.Contains(coord.out.String(), "QUARANTINED") {
		t.Errorf("coordinator log shows no quarantine:\n%s", coord.out.String())
	}
	// The liar's own /metrics prove the lies actually happened.
	lm := scrapeMetrics(t, wl.baseURL())
	if v, ok := metricValue(lm, `simd_chaos_lies_total{kind="flip"}`); !ok || v < 1 {
		t.Errorf("liar reported no flips:\n%s", lm)
	}
}
