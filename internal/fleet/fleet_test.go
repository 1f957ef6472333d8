package fleet

// Unit tests for the fleet's pure parts: the order-free idempotent merge,
// the lease table's lease/renew/expire/requeue lifecycle, registry liveness
// sweeps, and wire decode validation. The integration and e2e tests cover
// the assembled coordinator/worker loops; byzantine_test.go covers quorum,
// attestation, reputation, and auth.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"noisypull/internal/service"
)

func sr(seed uint64) service.SeedResult {
	return service.SeedResult{Seed: seed, Rounds: int(seed * 10), Converged: true}
}

func TestMergeOrderFreeAndIdempotent(t *testing.T) {
	m := newMerge([]uint64{5, 7, 9, 11})

	// Out-of-order arrival: nothing releases until the prefix is closed,
	// but both results are fresh to the merge.
	out, err := m.add("wa", []service.SeedResult{sr(9), sr(7)}, nil, 1)
	if err != nil || out.dups != 0 || len(out.released) != 0 {
		t.Fatalf("add out-of-order: rel=%v dups=%d err=%v", out.released, out.dups, err)
	}
	if len(out.fresh) != 2 || out.fresh[0].Seed != 9 || out.fresh[1].Seed != 7 {
		t.Fatalf("fresh = %v, want seeds [9 7]", out.fresh)
	}
	// The head seed arrives: the contiguous run 5,7,9 releases in order.
	out, err = m.add("wa", []service.SeedResult{sr(5)}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := out.released
	if want := []uint64{5, 7, 9}; len(rel) != 3 || rel[0].Seed != want[0] || rel[1].Seed != want[1] || rel[2].Seed != want[2] {
		t.Fatalf("released %v, want seeds %v", rel, want)
	}
	if m.done() {
		t.Fatal("merge done with seed 11 missing")
	}
	if p := m.pending(); len(p) != 1 || p[0] != 11 {
		t.Fatalf("pending = %v, want [11]", p)
	}

	// Duplicate delivery (a re-leased range reporting twice) is discarded;
	// only the new seed counts as fresh.
	out, err = m.add("wb", []service.SeedResult{sr(7), sr(11)}, nil, 1)
	if err != nil || out.dups != 1 {
		t.Fatalf("duplicate add: dups=%d err=%v", out.dups, err)
	}
	if len(out.fresh) != 1 || out.fresh[0].Seed != 11 {
		t.Fatalf("fresh = %v, want seeds [11]", out.fresh)
	}
	if len(out.released) != 1 || out.released[0].Seed != 11 {
		t.Fatalf("released %v, want [11]", out.released)
	}
	if !m.done() {
		t.Fatal("merge not done after all seeds")
	}

	// A result for a foreign seed is a protocol violation, not a silent drop.
	if _, err := m.add("wa", []service.SeedResult{sr(42)}, nil, 1); err == nil {
		t.Fatal("foreign seed merged without error")
	}
}

func TestLeaseTableLifecycle(t *testing.T) {
	lt := newLeaseTable()
	d := &dispatch{notify: make(chan struct{}, 1)}
	ls := []*lease{
		{id: "l-j-000", d: d, seeds: []uint64{1, 2}, group: newSeedGroup([]uint64{1, 2}, 1)},
		{id: "l-j-001", d: d, seeds: []uint64{3, 4}, group: newSeedGroup([]uint64{3, 4}, 1)},
	}
	lt.add(ls)
	if p, a := lt.counts(); p != 2 || a != 0 {
		t.Fatalf("counts = (%d,%d), want (2,0)", p, a)
	}

	now := time.Now()
	l := lt.next("wa", now.Add(time.Second))
	if l == nil || l.id != "l-j-000" || !l.active || l.node != "wa" {
		t.Fatalf("next = %+v", l)
	}

	// Renewal extends only leases the caller still owns; everything else
	// comes back as a cancel instruction.
	renewed := now.Add(2 * time.Second)
	cancel := lt.renew("wa", []string{"l-j-000", "l-j-001", "l-gone"}, renewed)
	if !reflect.DeepEqual(cancel, []string{"l-j-001", "l-gone"}) {
		t.Fatalf("renew cancel = %v", cancel)
	}
	if !l.deadline.Equal(renewed) {
		t.Fatalf("renewed deadline = %v, want %v", l.deadline, renewed)
	}
	if got := lt.renew("wb", []string{"l-j-000"}, now); len(got) != 1 || !l.deadline.Equal(renewed) {
		t.Fatal("renew from a non-owner extended the lease")
	}

	// Expiry: only past-deadline active leases.
	if ex := lt.expire(now); len(ex) != 0 {
		t.Fatalf("expire before deadline = %v", ex)
	}
	ex := lt.expire(now.Add(3 * time.Second))
	if len(ex) != 1 || ex[0].id != "l-j-000" {
		t.Fatalf("expire = %v", ex)
	}
	lt.requeue(ex[0], true)
	if ex[0].attempt != 1 || ex[0].active || ex[0].node != "" {
		t.Fatalf("requeued lease = %+v", ex[0])
	}
	if p, a := lt.counts(); p != 2 || a != 0 {
		t.Fatalf("counts after requeue = (%d,%d), want (2,0)", p, a)
	}

	// The requeued lease went to the back of the queue.
	if l := lt.next("wb", now.Add(time.Second)); l.id != "l-j-001" {
		t.Fatalf("next after requeue = %s, want l-j-001", l.id)
	}

	// complete works for active leases and is nil for unknown ids.
	if l := lt.complete("l-j-001"); l == nil {
		t.Fatal("complete(active) = nil")
	}
	if l := lt.complete("l-j-001"); l != nil {
		t.Fatal("complete twice returned a lease")
	}

	lt.dropJob(d)
	if p, a := lt.counts(); p != 0 || a != 0 {
		t.Fatalf("counts after dropJob = (%d,%d), want (0,0)", p, a)
	}
}

func TestRegistrySweep(t *testing.T) {
	r := newRegistry(100 * time.Millisecond)
	t0 := time.Now()
	n := r.register(&RegisterRequest{Version: "v1", GoMaxProcs: 4, Slots: 2}, t0)
	if n.id == "" {
		t.Fatal("empty assigned node id")
	}
	m := r.register(&RegisterRequest{NodeID: "wb", Version: "v2"}, t0)
	if m.id != "wb" {
		t.Fatalf("explicit id not kept: %s", m.id)
	}

	// wb keeps talking, the assigned node goes silent.
	r.touch("wb", t0.Add(150*time.Millisecond))
	died := r.sweep(t0.Add(200 * time.Millisecond))
	if len(died) != 1 || died[0].id != n.id {
		t.Fatalf("sweep died = %v", died)
	}
	if r.sweep(t0.Add(210*time.Millisecond)) != nil {
		t.Fatal("sweep reported the same death twice")
	}

	// A dead node that speaks again revives.
	if got := r.touch(n.id, t0.Add(300*time.Millisecond)); got == nil || !got.alive {
		t.Fatal("touch did not revive the dead node")
	}
	if r.touch("unknown", t0) != nil {
		t.Fatal("touch(unknown) != nil")
	}

	snap := r.snapshot(t0)
	if len(snap) != 2 || snap[0].ID >= snap[1].ID {
		t.Fatalf("snapshot not sorted: %v", snap)
	}
}

func TestNodeRate(t *testing.T) {
	n := &node{}
	t0 := time.Now()
	n.recordResult(8, t0)
	if n.rate != 0 {
		t.Fatalf("rate after first result = %g, want 0 (no interval yet)", n.rate)
	}
	n.recordResult(8, t0.Add(time.Second))
	if n.rate < 7 || n.rate > 9 {
		t.Fatalf("rate = %g, want ~8", n.rate)
	}
	if n.seedsDone != 16 || n.leasesDone != 2 {
		t.Fatalf("totals = %d seeds %d leases", n.seedsDone, n.leasesDone)
	}
}

func TestWireDecodeRejects(t *testing.T) {
	if _, err := DecodePoll([]byte(`{"node_id":""}`)); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := DecodePoll([]byte(`{"node_id":"has space"}`)); err == nil {
		t.Fatal("node id with space accepted")
	}
	if _, err := DecodePoll([]byte(`{"node_id":"evil\"}x"}`)); err == nil {
		t.Fatal("node id with quote accepted (metrics label injection)")
	}
	if _, err := DecodeResult([]byte(`{"node_id":"wa","lease_id":"l-1"}`)); err == nil {
		t.Fatal("result with neither results nor error accepted")
	}
	if _, err := DecodeResult([]byte(`{"node_id":"wa","lease_id":"l-1","results":[{"seed":1},{"seed":1}]}`)); err == nil {
		t.Fatal("duplicate result seeds accepted")
	}
	if _, err := DecodeHeartbeat([]byte(`{"node_id":"wa","gomaxprocs":-1}`)); err == nil {
		t.Fatal("negative gomaxprocs accepted")
	}
	if _, err := DecodeRegister([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON register accepted")
	}
}

func TestWireLeaseValidate(t *testing.T) {
	spec := service.JobSpec{N: 100, H: 4, Sources1: 1, Delta: 0.2, Protocol: "sf"}
	wl := WireLease{
		ID: "l-j-000001-000", Job: "j-000001",
		Fingerprint: spec.Fingerprint(), Spec: spec,
		Seeds: []uint64{1, 2, 3},
	}
	data, _ := json.Marshal(wl)
	if _, err := DecodeLease(data); err != nil {
		t.Fatalf("valid lease rejected: %v", err)
	}

	bad := wl
	bad.Fingerprint = "0000000000000000"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch not rejected: %v", err)
	}

	bad = wl
	bad.Seeds = []uint64{1, 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate lease seeds accepted")
	}

	bad = wl
	bad.Spec.Protocol = "meteor"
	bad.Fingerprint = bad.Spec.Fingerprint()
	if err := bad.Validate(); err == nil {
		t.Fatal("unbuildable spec accepted")
	}
}
