package service

// Tests for the lease-lifecycle journal records (recLease). Replay stores
// them without interpreting them — the fleet folds them (internal/fleet
// fold_test.go) — so what replay owns, and these tests pin, is that it
// never errors on file content and that each job's records are that job's
// journal records, in order, after its submit (the job-less ones in a list
// of their own), at every byte offset and for fuzzed bytes.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func leaseRec(op LeaseOp, job, lease, node string, seeds []uint64, attempt int, results []SeedResult) *LeaseRecord {
	return &LeaseRecord{Op: op, Job: job, Lease: lease, Node: node, Seeds: seeds, Attempt: attempt, Results: results}
}

// wantLeaseRecords reads a journal the way replay must see it — whole
// lines, up to the first that does not parse — and returns each submitted
// job's lease records after its first submit, and the lease records that
// name no job, in journal order.
func wantLeaseRecords(data []byte) (jobs map[string][]LeaseRecord, nodes []LeaseRecord) {
	jobs = make(map[string][]LeaseRecord)
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			break
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		if rec.T == recSubmit && rec.Spec != nil && rec.Job != "" && jobs[rec.Job] == nil {
			jobs[rec.Job] = []LeaseRecord{}
		}
		if rec.T != recLease {
			continue
		}
		lr := LeaseRecord{Op: rec.Op, Job: rec.Job, Lease: rec.Lease, Node: rec.Node, Seeds: rec.Seeds,
			Attempt: rec.Attempt, Results: rec.Results, Quorum: rec.Quorum, Reason: rec.Error}
		if rec.Job == "" {
			nodes = append(nodes, lr)
		} else if recs, ok := jobs[rec.Job]; ok {
			jobs[rec.Job] = append(recs, lr)
		}
	}
	return jobs, nodes
}

// checkReplay asserts what replay owns for any journal bytes: it does not
// error, each recovered job carries exactly its own lease records in
// journal order and the job-less ones come back in order, and a job's
// released results are a prefix of its spec's seeds.
func checkReplay(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), journalFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay errored on file content: %v", err)
	}
	jobs, nodes := wantLeaseRecords(data)
	if len(out.jobs) != len(jobs) {
		t.Fatalf("replayed %d jobs, want %d", len(out.jobs), len(jobs))
	}
	for _, rj := range out.jobs {
		if want := jobs[rj.id]; len(want) != len(rj.leases) || (len(want) > 0 && !reflect.DeepEqual(rj.leases, want)) {
			t.Fatalf("job %s lease records = %+v, want %+v", rj.id, rj.leases, want)
		}
		for i, r := range rj.results {
			if i >= len(rj.spec.Seeds) || r.Seed != rj.spec.Seeds[i] {
				t.Fatalf("job %s result %d is seed %d, spec seeds %v", rj.id, i, r.Seed, rj.spec.Seeds)
			}
		}
		if n := len(rj.results); rj.ck != nil && (n == len(rj.spec.Seeds) || rj.ck.seed != rj.spec.Seeds[n]) {
			t.Fatalf("job %s kept a checkpoint of seed %d after releasing %d of seeds %v", rj.id, rj.ck.seed, n, rj.spec.Seeds)
		}
	}
	if len(nodes) != len(out.nodeRecords) || (len(nodes) > 0 && !reflect.DeepEqual(out.nodeRecords, nodes)) {
		t.Fatalf("job-less records = %+v, want %+v", out.nodeRecords, nodes)
	}
}

// leaseJournalBytes is the canonical lease journal the truncation and fuzz
// tests start from: grants, a delivery, a released seed, a requeue, a
// quarantine and its absolve, a record of an unknown job, and an old
// coordinator's renew.
func leaseJournalBytes(t testing.TB) []byte {
	spec := quickSpec(1, 2, 3, 4, 5, 6)
	jl, err := openJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendLease(leaseRec(LeaseGrant, "j-000001", "l-j-000001-009", "wz", []uint64{1}, 0, nil)) // before its submit
	jl.appendSubmit("j-000001", &spec)
	jl.appendLease(leaseRec(LeaseGrant, "j-000001", "l-j-000001-000", "wa", []uint64{1, 2}, 0, nil))
	jl.appendLease(leaseRec(LeaseGrant, "j-000001", "l-j-000001-001", "wb", []uint64{3, 4}, 0, nil))
	jl.appendLease(leaseRec(LeaseResult, "j-000001", "l-j-000001-000", "wa", []uint64{1, 2}, 0,
		[]SeedResult{{Seed: 1, Rounds: 11}, {Seed: 2, Rounds: 12}}))
	jl.appendSeed("j-000001", 1, &SeedResult{Seed: 1, Rounds: 11}, 1)
	jl.appendLease(&LeaseRecord{Op: LeaseQuarantine, Node: "wb", Reason: "outvoted"})
	jl.appendLease(leaseRec(LeaseRequeue, "j-000001", "l-j-000001-001", "", []uint64{3, 4}, 1, nil))
	jl.appendLease(leaseRec("renew", "j-000001", "l-j-000001-001", "wa", nil, 0, nil))
	jl.appendLease(leaseRec(LeaseGrant, "j-000002", "l-j-000002-000", "wa", []uint64{1}, 0, nil)) // never submitted
	jl.appendLease(leaseRec(LeaseGrant, "j-000001", "l-j-000001-002", "wc", []uint64{5, 6}, 0, nil))
	jl.appendLease(&LeaseRecord{Op: LeaseAbsolve, Node: "wb"})
	jl.close()
	data, err := os.ReadFile(jl.path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLeaseJournalTruncatedAtEveryOffset cuts a lease-bearing journal at
// every byte position: replay must never error, and must hand each job
// exactly the lease records that survived the cut.
func TestLeaseJournalTruncatedAtEveryOffset(t *testing.T) {
	data := leaseJournalBytes(t)
	jobs, nodes := wantLeaseRecords(data)
	if len(jobs["j-000001"]) != 6 || len(nodes) != 2 {
		t.Fatalf("canonical journal holds %d job records and %d job-less ones, want 6 and 2", len(jobs["j-000001"]), len(nodes))
	}
	for cut := 0; cut <= len(data); cut++ {
		checkReplay(t, data[:cut])
	}
}

// FuzzLeaseJournalReplay throws arbitrary bytes at replay and asserts what
// replay owns for every recovered job; the fleet's fold of the records is
// fuzzed by internal/fleet's FuzzLeaseFold.
func FuzzLeaseJournalReplay(f *testing.F) {
	valid := leaseJournalBytes(f)
	f.Add(valid)
	f.Add(valid[:2*len(valid)/3])
	f.Add(bytes.Replace(valid, []byte(`"op":"result"`), []byte(`"op":"grant"`), 1))
	f.Add(bytes.ReplaceAll(valid, []byte(`"seeds":[3,4]`), []byte(`"seeds":[1,2]`)))
	f.Add([]byte(`{"t":"submit","job":"j-1","spec":{"n":10,"h":1,"sources1":1,"seeds":[1]}}` + "\n" +
		`{"t":"lease","job":"j-1","op":"grant","lease":"l-j-1-000","seeds":[1,1,99]}` + "\n"))
	f.Add([]byte(`{"t":"lease","job":"j-none","op":"result","lease":"x","results":[{"seed":5}]}` + "\n"))
	f.Add([]byte(`{"t":"lease","op":"quarantine","node":"wl","error":"lied"}` + "\n" +
		`{"t":"lease","op":"absolve","node":"wl"}` + "\n" +
		`{"t":"lease","op":"quarantine"}` + "\n"))
	f.Fuzz(checkReplay)
}
