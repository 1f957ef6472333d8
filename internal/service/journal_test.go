package service

// Unit and fuzz tests for the write-ahead job journal: append/replay round
// trips, torn-tail tolerance at every byte offset, stale-checkpoint
// invalidation, duplicate and foreign records, and the nil no-op contract.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testFinished is the finish time the unit tests journal for terminal jobs.
var testFinished = time.UnixMilli(1_760_000_000_000)

// buildJournal writes a journal with the given appends into dir and returns
// the file path and its raw bytes.
func buildJournal(t *testing.T, dir string, write func(jl *journal)) (string, []byte) {
	t.Helper()
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	write(jl)
	jl.close()
	data, err := os.ReadFile(jl.path)
	if err != nil {
		t.Fatal(err)
	}
	return jl.path, data
}

// appendOldState writes the state record that older daemons journaled at
// every job start; replay skips it.
func appendOldState(jl *journal, id string) {
	jl.append(&journalRecord{T: "state", Job: id, State: StateRunning}, false)
}

func TestJournalRoundTrip(t *testing.T) {
	spec := quickSpec(1, 2)
	path, _ := buildJournal(t, t.TempDir(), func(jl *journal) {
		jl.appendSubmit("j-000007", &spec)
		appendOldState(jl, "j-000007")
		jl.appendSeed("j-000007", 1, &SeedResult{Seed: 1, Rounds: 12, Converged: true}, 13)
		jl.appendCheckpoint("j-000007", 2, 40, []byte("snapshot-bytes"), 55)
	})
	out, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.records != 4 || out.torn || len(out.jobs) != 1 || out.maxID != 7 {
		t.Fatalf("replay outcome %+v", out)
	}
	j := out.jobs[0]
	if j.id != "j-000007" || j.terminal != "" || len(j.results) != 1 || j.results[0].Rounds != 12 {
		t.Fatalf("recovered job %+v", j)
	}
	if j.ck == nil || j.ck.seed != 2 || j.ck.round != 40 || !bytes.Equal(j.ck.data, []byte("snapshot-bytes")) {
		t.Fatalf("checkpoint %+v", j.ck)
	}
	if j.seq != 55 {
		t.Fatalf("seq = %d, want 55 (max of journaled seqs)", j.seq)
	}
	if j.spec.N != spec.N || j.spec.Protocol != spec.Protocol || len(j.spec.Seeds) != 2 {
		t.Fatalf("spec did not round-trip: %+v", j.spec)
	}
}

func TestJournalTerminalClearsCheckpoint(t *testing.T) {
	spec := quickSpec(1)
	path, _ := buildJournal(t, t.TempDir(), func(jl *journal) {
		jl.appendSubmit("j-000001", &spec)
		jl.appendCheckpoint("j-000001", 1, 10, []byte("x"), 3)
		jl.appendTerminal("j-000001", StateDone, "", testFinished)
	})
	out, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j := out.jobs[0]
	if j.terminal != StateDone || j.ck != nil {
		t.Fatalf("terminal job kept checkpoint: terminal=%q ck=%v", j.terminal, j.ck)
	}
	if !j.finished.Equal(testFinished) {
		t.Fatalf("finish time %v did not round-trip as %v", j.finished, testFinished)
	}
}

// TestJournalSeedResultInvalidatesCheckpoint pins the staleness rule: once a
// seed has a journaled result, any checkpoint for that seed is obsolete (the
// trial finished) and must not be offered for resume.
func TestJournalSeedResultInvalidatesCheckpoint(t *testing.T) {
	spec := quickSpec(1, 2)
	path, _ := buildJournal(t, t.TempDir(), func(jl *journal) {
		jl.appendSubmit("j-000002", &spec)
		jl.appendCheckpoint("j-000002", 1, 30, []byte("stale"), 5)
		jl.appendSeed("j-000002", 1, &SeedResult{Seed: 1, Rounds: 44}, 9)
		// A later checkpoint for the already-finished seed is also ignored.
		jl.appendCheckpoint("j-000002", 1, 10, []byte("also stale"), 11)
	})
	out, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j := out.jobs[0]
	if j.ck != nil {
		t.Fatalf("stale checkpoint survived: %+v", j.ck)
	}
	if len(j.results) != 1 {
		t.Fatalf("results %+v", j.results)
	}
}

func TestJournalSkipsDuplicatesAndForeignRecords(t *testing.T) {
	spec := quickSpec(1)
	path, _ := buildJournal(t, t.TempDir(), func(jl *journal) {
		jl.appendSubmit("j-000003", &spec)
		jl.appendSubmit("j-000003", &spec) // duplicate submit: first wins
		jl.appendSeed("j-000003", 1, &SeedResult{Seed: 1, Rounds: 7}, 1)
		jl.appendSeed("j-000003", 1, &SeedResult{Seed: 1, Rounds: 99}, 2) // duplicate seed
		jl.appendSeed("j-999999", 5, &SeedResult{Seed: 5}, 1)             // unknown job
		jl.append(&journalRecord{T: "hologram", Job: "j-000003"}, false)  // unknown type
	})
	out, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.jobs) != 1 {
		t.Fatalf("%d jobs recovered", len(out.jobs))
	}
	j := out.jobs[0]
	if len(j.results) != 1 || j.results[0].Rounds != 7 {
		t.Fatalf("duplicate seed record was not deduplicated: %+v", j.results)
	}
}

// TestJournalReplayTruncatedAtEveryOffset simulates a torn write at every
// possible byte position: replay must never error or panic, and must recover
// exactly the records whose trailing newline survived.
func TestJournalReplayTruncatedAtEveryOffset(t *testing.T) {
	spec := quickSpec(3, 4)
	fullPath, data := buildJournal(t, t.TempDir(), func(jl *journal) {
		jl.appendSubmit("j-000001", &spec)
		appendOldState(jl, "j-000001")
		jl.appendSeed("j-000001", 3, &SeedResult{Seed: 3, Rounds: 21, Converged: true}, 8)
		jl.appendCheckpoint("j-000001", 4, 17, []byte{0x00, 0x01, 0xFF}, 12)
		jl.appendTerminal("j-000001", StateFailed, "boom", testFinished)
	})
	full, err := replayJournal(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if full.records != 5 {
		t.Fatalf("full journal has %d records", full.records)
	}
	// whole[i] = number of complete lines within data[:i].
	whole := make([]int, len(data)+1)
	n := 0
	for i, b := range data {
		if b == '\n' {
			n++
		}
		whole[i+1] = n
	}
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := replayJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		// A remainder that lost only its trailing newline is still a complete
		// record and is kept; anything else is the torn tail and is dropped.
		lineStart := 0
		for i := 0; i < cut; i++ {
			if data[i] == '\n' {
				lineStart = i + 1
			}
		}
		rest := data[lineStart:cut]
		wantRecords, wantTorn := whole[cut], false
		if len(rest) > 0 {
			if json.Valid(rest) {
				wantRecords++
			} else {
				wantTorn = true
			}
		}
		if out.records != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, out.records, wantRecords)
		}
		if out.torn != wantTorn {
			t.Fatalf("cut=%d: torn=%v, want %v", cut, out.torn, wantTorn)
		}
	}
}

func TestJournalReplayGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	cases := [][]byte{
		nil,
		[]byte("\n\n\n"),
		[]byte("not json at all\n"),
		[]byte(`{"t":"submit"`), // torn mid-object
		[]byte("{\"t\":\"submit\",\"job\":\"j-000001\"}\n\x00\x01\x02\xFF"),
		bytes.Repeat([]byte{0xDE, 0xAD}, 4096),
		[]byte(`{"t":"seed","job":"j-000001","seed":18446744073709551615}` + "\n"),
	}
	for i, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := replayJournal(path); err != nil {
			t.Fatalf("case %d: replay returned error: %v", i, err)
		}
	}
	// A missing file is an empty journal, not an error.
	out, err := replayJournal(filepath.Join(dir, "no-such-journal"))
	if err != nil || out.records != 0 {
		t.Fatalf("missing file: %+v, %v", out, err)
	}
}

// TestJournalNilAndClosedAreNoops pins the nil-receiver contract (a service
// without -journal-dir) and the post-close sticky error.
func TestJournalNilAndClosedAreNoops(t *testing.T) {
	var jl *journal
	spec := quickSpec(1)
	jl.appendSubmit("j-000001", &spec)
	jl.appendSeed("j-000001", 1, &SeedResult{}, 1)
	jl.appendCheckpoint("j-000001", 1, 1, []byte("x"), 1)
	jl.appendTerminal("j-000001", StateDone, "", testFinished)
	jl.close()

	real, err := openJournal(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	real.close()
	real.appendSubmit("j-000001", &spec) // must not panic or write
	real.close()                         // idempotent
	data, err := os.ReadFile(real.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("append after close wrote %d bytes", len(data))
	}
}

// FuzzJournalReplay throws arbitrary bytes at the replay path: it must never
// panic and never return an error for file content (only I/O errors surface).
func FuzzJournalReplay(f *testing.F) {
	spec := quickSpec(1, 2)
	dir := f.TempDir()
	_, valid := func() (string, []byte) {
		jl, err := openJournal(dir, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		jl.appendSubmit("j-000001", &spec)
		appendOldState(jl, "j-000001")
		jl.appendSeed("j-000001", 1, &SeedResult{Seed: 1, Rounds: 9}, 4)
		jl.appendCheckpoint("j-000001", 2, 33, []byte("snap"), 6)
		jl.appendTerminal("j-000001", StateDone, "", testFinished)
		jl.close()
		data, err := os.ReadFile(jl.path)
		if err != nil {
			f.Fatal(err)
		}
		return jl.path, data
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(""))
	f.Add([]byte("{\"t\":\"submit\",\"job\":\"j-0\"}\ngarbage"))
	f.Add([]byte("{\"t\":\"terminal\",\"job\":\"j-1\",\"state\":\"done\"}\n"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), journalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay errored on file content: %v", err)
		}
		if out == nil {
			t.Fatal("nil outcome without error")
		}
		for _, j := range out.jobs {
			if j.id == "" {
				t.Fatal("recovered job with empty id")
			}
		}
	})
}
