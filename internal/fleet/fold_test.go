package fleet

// Tests for the fold of replayed lease records (fold.go): banked results
// and adopted leases reconstructed from a job's records, the released
// prefix winning over the bank, quorum leases re-cut, quarantine folded
// from the job-less records, every prefix of a canonical record sequence,
// and a fuzz target pinning the invariants a re-dispatch relies on for any
// record sequence whatsoever.

import (
	"reflect"
	"testing"

	"noisypull/internal/service"
)

// grantRec is a grant record of job j-000001's lease idx.
func grantRec(idx int, node string, attempt int, seeds ...uint64) service.LeaseRecord {
	return service.LeaseRecord{Op: service.LeaseGrant, Job: "j-000001", Lease: leaseID("j-000001", idx),
		Node: node, Seeds: seeds, Attempt: attempt}
}

// leaseOpRec is a record of job j-000001's lease idx with no seeds.
func leaseOpRec(op service.LeaseOp, idx int, node string, attempt int) service.LeaseRecord {
	return service.LeaseRecord{Op: op, Job: "j-000001", Lease: leaseID("j-000001", idx), Node: node, Attempt: attempt}
}

// resultRec is a result record of job j-000001's lease idx.
func resultRec(idx int, node string, results ...service.SeedResult) service.LeaseRecord {
	rec := leaseOpRec(service.LeaseResult, idx, node, 0)
	for _, r := range results {
		rec.Seeds = append(rec.Seeds, r.Seed)
	}
	rec.Results = results
	return rec
}

// checkFold folds recs for job jobID, whose seeds still without a released
// result are need (distinct), and asserts what a re-dispatch relies on, for
// any records whatsoever. Banked seeds are in the job, unreleased and
// unique. Lease seeds are in the job, unreleased, and disjoint from each
// other, from themselves and from the banked seeds; no quorum lease is
// adopted. Banked, leased and backlog seeds together are exactly the needed
// seeds. The next lease index exceeds every index the records name.
func checkFold(t *testing.T, jobID string, need []uint64, recs []service.LeaseRecord) (d *dispatch, banked []service.SeedResult, adopted []*lease) {
	t.Helper()
	d = &dispatch{job: service.DispatchJob{ID: jobID, Seeds: need, Records: recs}, merge: newMerge(need)}
	banked, adopted = d.fold()
	needed := make(map[uint64]bool, len(need))
	for _, s := range need {
		needed[s] = true
	}
	covered := make(map[uint64]bool, len(need))
	for _, r := range banked {
		if !needed[r.Seed] {
			t.Fatalf("banked seed %d is not an unreleased seed of the job %v", r.Seed, need)
		}
		if covered[r.Seed] {
			t.Fatalf("banked seed %d twice", r.Seed)
		}
		covered[r.Seed] = true
	}
	ids := make(map[string]bool)
	for _, l := range adopted {
		if len(l.seeds) == 0 {
			t.Fatalf("lease %s has no seeds", l.id)
		}
		if ids[l.id] {
			t.Fatalf("lease %s adopted twice", l.id)
		}
		ids[l.id] = true
		if l.group.need > 1 || l.group.replicas != 1 || l.group.want != 1 {
			t.Fatalf("lease %s adopted with quorum group %+v", l.id, l.group)
		}
		if l.active != (l.node != "") || (l.node != "" && l.group.holding[l.node] != 1) {
			t.Fatalf("lease %s adopted with owner %q, active %v, holding %v", l.id, l.node, l.active, l.group.holding)
		}
		for _, s := range l.seeds {
			if !needed[s] {
				t.Fatalf("lease %s seed %d is not an unreleased seed of the job %v", l.id, s, need)
			}
			if covered[s] {
				t.Fatalf("lease %s seed %d banked or claimed twice", l.id, s)
			}
			covered[s] = true
		}
	}
	for _, s := range d.backlog {
		if !needed[s] || covered[s] {
			t.Fatalf("backlog seed %d is not a needed seed free of banked results and leases", s)
		}
		covered[s] = true
	}
	if len(covered) != len(need) {
		t.Fatalf("banked, leased and backlog seeds cover %d of %d needed seeds", len(covered), len(need))
	}
	for _, rec := range recs {
		if idx, ok := leaseIndex(jobID, rec.Lease); ok && idx >= d.nextIdx {
			t.Fatalf("next lease index %d does not exceed journaled lease %s", d.nextIdx, rec.Lease)
		}
	}
	return d, banked, adopted
}

func TestLeaseJournalRoundTrip(t *testing.T) {
	recs := []service.LeaseRecord{
		// l-...-000 delivers: its seeds bank, the lease ends.
		grantRec(0, "wa", 0, 3, 4),
		resultRec(0, "wa", service.SeedResult{Seed: 3, Rounds: 30}, service.SeedResult{Seed: 4, Rounds: 40}),
		// l-...-001 stays active on wa. The renew, an old coordinator's
		// record naming a node that never owned the lease, changes nothing.
		grantRec(1, "wa", 0, 5, 6),
		leaseOpRec("renew", 1, "wb", 0),
		// l-...-002 was requeued: ownerless, attempt bumped.
		grantRec(2, "wc", 0, 7, 8),
		leaseOpRec(service.LeaseRequeue, 2, "", 1),
		// l-...-003 hit the attempt cap and is gone.
		grantRec(3, "wd", 4, 1),
		leaseOpRec(service.LeaseAbandon, 3, "wd", 4),
	}
	d, banked, adopted := checkFold(t, "j-000001", []uint64{1, 2, 3, 4, 5, 6, 7, 8}, recs)

	want := []service.SeedResult{{Seed: 3, Rounds: 30}, {Seed: 4, Rounds: 40}}
	if !reflect.DeepEqual(banked, want) {
		t.Fatalf("banked = %+v, want %+v", banked, want)
	}
	if len(adopted) != 2 {
		t.Fatalf("adopted %d leases, want 2", len(adopted))
	}
	if l := adopted[0]; l.id != "l-j-000001-001" || l.node != "wa" || !l.active || l.attempt != 0 || !reflect.DeepEqual(l.seeds, []uint64{5, 6}) {
		t.Fatalf("active lease = %+v", l)
	}
	if l := adopted[1]; l.id != "l-j-000001-002" || l.node != "" || l.active || l.attempt != 1 || !reflect.DeepEqual(l.seeds, []uint64{7, 8}) {
		t.Fatalf("requeued lease = %+v", l)
	}
	if !reflect.DeepEqual(d.backlog, []uint64{1, 2}) {
		t.Fatalf("backlog = %v, want [1 2]", d.backlog)
	}
	if d.nextIdx != 4 {
		t.Fatalf("next lease index = %d, want 4", d.nextIdx)
	}
}

func TestLeaseJournalReleasedPrefixWinsOverBank(t *testing.T) {
	recs := []service.LeaseRecord{
		grantRec(0, "wa", 0, 1, 2),
		resultRec(0, "wa", service.SeedResult{Seed: 1, Rounds: 10}, service.SeedResult{Seed: 2, Rounds: 20}),
	}
	// Seed 1 then made it into the released prefix before the crash, so the
	// job no longer needs it: the released result is authoritative and the
	// bank must drop it.
	d, banked, adopted := checkFold(t, "j-000001", []uint64{2}, recs)
	if len(banked) != 1 || banked[0].Seed != 2 {
		t.Fatalf("banked = %+v, want just seed 2", banked)
	}
	if len(adopted) != 0 || len(d.backlog) != 0 {
		t.Fatalf("adopted %v, backlog %v; want neither", adopted, d.backlog)
	}
}

// TestFoldRecutsQuorumLeases: a quorum lease is checked like any other, so
// it still excludes a later lease over its seeds, but it is not adopted —
// its votes were never journaled — and its seeds go back on the backlog.
func TestFoldRecutsQuorumLeases(t *testing.T) {
	q0, q1 := grantRec(0, "wa", 0, 1, 2), grantRec(1, "wb", 0, 1, 2)
	q0.Quorum, q1.Quorum = 2, 2
	recs := []service.LeaseRecord{q0, q1, grantRec(2, "wc", 0, 2, 3), grantRec(3, "wc", 0, 4)}
	d, _, adopted := checkFold(t, "j-000001", []uint64{1, 2, 3, 4}, recs)
	if len(adopted) != 1 || adopted[0].id != "l-j-000001-003" {
		t.Fatalf("adopted = %+v, want only l-j-000001-003", adopted)
	}
	if !reflect.DeepEqual(d.backlog, []uint64{1, 2, 3}) || d.nextIdx != 4 {
		t.Fatalf("backlog %v, next index %d; want [1 2 3] and 4", d.backlog, d.nextIdx)
	}
}

// TestLeaseJournalQuarantineRoundTrip pins the fold of the job-less
// quarantine records: the nodes quarantined (with their reasons) minus any
// later absolve, so a lying node stays benched across a coordinator restart.
func TestLeaseJournalQuarantineRoundTrip(t *testing.T) {
	recs := []service.LeaseRecord{
		{Op: service.LeaseQuarantine, Node: "wl", Reason: "first offense"},
		{Op: service.LeaseQuarantine, Node: "wx", Reason: "outvoted"},
		{Op: service.LeaseAbsolve, Node: "wx"},
		// Re-quarantine after an absolve, with a fresh reason: latest wins.
		{Op: service.LeaseQuarantine, Node: "wl", Reason: "second offense"},
		// Node-less records are malformed; the fold must drop them.
		{Op: service.LeaseQuarantine},
		{Op: service.LeaseAbsolve},
	}
	want := map[string]string{"wl": "second offense"}
	if got := foldQuarantine(recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantined = %+v, want %+v", got, want)
	}
	// Quarantine records name no lease: a job's fold ignores them.
	d, banked, adopted := checkFold(t, "j-000001", []uint64{1, 2}, recs)
	if len(banked) != 0 || len(adopted) != 0 || d.nextIdx != 0 {
		t.Fatalf("quarantine records leaked into job state: banked=%v adopted=%v next=%d", banked, adopted, d.nextIdx)
	}
}

// canonicalLeaseRecords is job j-000001's lease records in the service's
// canonical lease journal (leasejournal_test.go there); the journal
// releases seed 1 after the third of them.
func canonicalLeaseRecords() []service.LeaseRecord {
	return []service.LeaseRecord{
		grantRec(0, "wa", 0, 1, 2),
		grantRec(1, "wb", 0, 3, 4),
		resultRec(0, "wa", service.SeedResult{Seed: 1, Rounds: 11}, service.SeedResult{Seed: 2, Rounds: 12}),
		leaseOpRec(service.LeaseRequeue, 1, "", 1),
		leaseOpRec("renew", 1, "wa", 0),
		grantRec(2, "wc", 0, 5, 6),
	}
}

// TestFoldEveryPrefix folds every prefix of the canonical records, with
// seed 1 released or not, as a journal cut at any byte offset leaves them:
// the invariants hold for each, and the whole sequence folds to its known
// state.
func TestFoldEveryPrefix(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	recs := canonicalLeaseRecords()
	for k := 0; k <= len(recs); k++ {
		for released := 0; released <= 1; released++ {
			checkFold(t, "j-000001", seeds[released:], recs[:k])
		}
	}
	d, banked, adopted := checkFold(t, "j-000001", seeds[1:], recs)
	if len(banked) != 1 || banked[0].Seed != 2 || banked[0].Rounds != 12 {
		t.Fatalf("banked = %+v, want seed 2's result", banked)
	}
	if len(adopted) != 2 || adopted[0].id != "l-j-000001-001" || adopted[0].active || adopted[0].attempt != 1 ||
		adopted[1].id != "l-j-000001-002" || adopted[1].node != "wc" {
		t.Fatalf("adopted = %+v", adopted)
	}
	if len(d.backlog) != 0 || d.nextIdx != 3 {
		t.Fatalf("backlog %v, next index %d; want none and 3", d.backlog, d.nextIdx)
	}
}

// foldInput decodes fuzz bytes into the unreleased seeds of a job with
// seeds 1..8 (the first byte releases a prefix) and an arbitrary sequence
// of its lease records: every 4-byte header picks an op (renew and
// quarantine included), a lease id (the job's, another job's, empty or
// malformed), a node, an attempt and a quorum, and up to four following
// bytes give seeds in 0..10 (outside the job, repeated, released) with
// results for them.
func foldInput(data []byte) (need []uint64, recs []service.LeaseRecord) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if len(data) == 0 {
		return seeds, nil
	}
	need = seeds[int(data[0])%(len(seeds)+1):]
	ops := []service.LeaseOp{service.LeaseGrant, service.LeaseResult, service.LeaseRequeue,
		service.LeaseAbandon, "renew", service.LeaseQuarantine, ""}
	nodes := []string{"", "wa", "wb", "wc"}
	for b := data[1:]; len(b) >= 4; {
		rec := service.LeaseRecord{
			Op:      ops[int(b[0])%len(ops)],
			Job:     "j-000001",
			Node:    nodes[b[2]%4],
			Attempt: int(b[3] % 4),
			Quorum:  int(b[3] / 4 % 4),
		}
		switch x := b[1]; {
		case x < 200:
			rec.Lease = leaseID("j-000001", int(x%12))
		case x < 220:
		case x < 240:
			rec.Lease = leaseID("j-000002", int(x%12))
		default:
			rec.Lease = "l-j-000001-x"
		}
		n := min(int(b[0]/8)%5, len(b)-4)
		for _, x := range b[4 : 4+n] {
			s := uint64(x % 11)
			rec.Seeds = append(rec.Seeds, s)
			rec.Results = append(rec.Results, service.SeedResult{Seed: s, Rounds: int(x)})
		}
		recs = append(recs, rec)
		b = b[4+n:]
	}
	return need, recs
}

// FuzzLeaseFold folds arbitrary record sequences: a mangled journal may
// lose work (recomputed; harmless) but must never yield a banked result or
// a lease outside the seeds the job still needs, overlapping work, or a
// fresh lease id that a journaled lease already holds.
func FuzzLeaseFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 16, 0, 1, 0, 1, 2, 8, 0, 1, 0, 1, 2})
	f.Add([]byte{1, 16, 1, 2, 0, 3, 4, 9, 2, 0, 1, 3, 4, 2, 2, 0, 1})
	f.Add([]byte{0, 32, 5, 1, 8, 1, 1, 2, 32, 6, 2, 8, 1, 2, 24, 7, 3, 0, 3, 3, 10})
	f.Add([]byte{3, 0, 250, 1, 0, 16, 205, 1, 0, 5, 6, 4, 11, 2, 3, 3, 230, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		need, recs := foldInput(data)
		checkFold(t, "j-000001", need, recs)
	})
}
