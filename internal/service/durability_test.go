package service

// Service-level durability tests: terminal jobs survive a restart, interrupted
// jobs re-enqueue and complete with results identical to an uninterrupted run,
// checkpointed trials resume mid-run, unresumable jobs surface as "lost to
// crash", the watchdog kills stuck jobs, /readyz load-sheds, StreamFrom
// filters already-delivered events, and a Submit racing Drain never leaves a
// journaled-but-orphaned job (the regression test runs under -race).

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"noisypull"
)

// openJournaled starts a journal-backed service and waits for recovery.
func openJournaled(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	cfg.JournalDir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s)
	return s
}

func waitReady(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s.ready.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("service never became ready")
}

// directResult runs the spec's configuration for one seed straight on the
// engine — the uninterrupted control a recovered job must match bit-for-bit.
func directResult(t *testing.T, spec JobSpec, seed uint64) SeedResult {
	t.Helper()
	cfg, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.Workers = 1
	res, err := noisypull.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return SeedResult{
		Seed:            seed,
		Rounds:          res.Rounds,
		Converged:       res.Converged,
		FirstAllCorrect: res.FirstAllCorrect,
		CorrectOpinion:  res.CorrectOpinion,
		FinalCorrect:    res.FinalCorrect,
	}
}

func sameSeedResult(a, b SeedResult) bool {
	return a.Seed == b.Seed && a.Rounds == b.Rounds && a.Converged == b.Converged &&
		a.FirstAllCorrect == b.FirstAllCorrect && a.CorrectOpinion == b.CorrectOpinion &&
		a.FinalCorrect == b.FinalCorrect
}

// TestRecoveryKeepsTerminalExpiry restarts a journal-backed service with a
// short ResultTTL around a finished job: inside the TTL the job comes back
// with its original finish time, and past it the job stays evicted.
func TestRecoveryKeepsTerminalExpiry(t *testing.T) {
	const ttl = 2 * time.Second
	dir := t.TempDir()
	cfg := Config{Workers: 1, ResultTTL: ttl}
	s1 := openJournaled(t, dir, cfg)
	st, err := s1.Submit(quickSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	before := waitState(t, s1, st.ID, StateDone)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // a restart time distinct from the finish time

	s2 := openJournaled(t, dir, cfg)
	after, err := s2.Get(st.ID)
	s2.Close()
	if err != nil {
		t.Fatalf("job inside its TTL not restored: %v", err)
	}
	if after.Finished == nil || after.Finished.UnixMilli() != before.Finished.UnixMilli() {
		t.Fatalf("restored finish time %v, want %v", after.Finished, before.Finished)
	}

	time.Sleep(time.Until(before.Finished.Add(ttl + 50*time.Millisecond)))
	s3 := openJournaled(t, dir, cfg)
	defer s3.Close()
	if _, err := s3.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job past its TTL: Get error %v, want ErrNotFound", err)
	}
}

// TestRecoveryRestoresTerminalJobs restarts the service over a journal whose
// only job finished cleanly: it must come back queryable with identical
// results, and the id counter must continue past it.
func TestRecoveryRestoresTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := openJournaled(t, dir, Config{Workers: 1})
	st, err := s1.Submit(quickSpec(5, 9))
	if err != nil {
		t.Fatal(err)
	}
	before := waitState(t, s1, st.ID, StateDone)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := openJournaled(t, dir, Config{Workers: 1})
	defer s2.Close()
	summary, done := s2.ReplayStatus()
	if !done || summary.Restored != 1 || summary.Resumed != 0 || summary.Lost != 0 {
		t.Fatalf("replay summary %+v", summary)
	}
	after, err := s2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateDone || len(after.Results) != len(before.Results) {
		t.Fatalf("restored job: state=%s results=%d", after.State, len(after.Results))
	}
	for i := range after.Results {
		if !sameSeedResult(after.Results[i], before.Results[i]) {
			t.Fatalf("seed %d: restored %+v != original %+v", after.Results[i].Seed, after.Results[i], before.Results[i])
		}
	}
	st2, err := s2.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("id counter did not advance past recovered jobs: %s", st2.ID)
	}
	waitState(t, s2, st2.ID, StateDone)
}

// TestRecoveryCompletesInterruptedJob replays a journal captured mid-job (a
// submit record plus one finished seed — what a kill -9 between trials leaves
// behind): the job must re-enqueue, keep its completed prefix, run the
// remaining seed, and end with results identical to an uninterrupted run. The
// event sequence must continue past the journaled high-water mark.
func TestRecoveryCompletesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(5, 9)
	spec.normalize()
	first := directResult(t, spec, 5)
	const journaledSeq = 1000
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendSubmit("j-000004", &spec)
	appendOldState(jl, "j-000004")
	jl.appendSeed("j-000004", 5, &first, journaledSeq)
	jl.close()

	s := openJournaled(t, dir, Config{Workers: 1})
	defer s.Close()
	summary, _ := s.ReplayStatus()
	if summary.Resumed != 1 || summary.Lost != 0 || summary.Restored != 0 {
		t.Fatalf("replay summary %+v", summary)
	}
	final := waitState(t, s, "j-000004", StateDone)
	if len(final.Results) != 2 {
		t.Fatalf("resumed job has %d results", len(final.Results))
	}
	if !sameSeedResult(final.Results[0], first) {
		t.Fatalf("recovered prefix changed: %+v", final.Results[0])
	}
	if want := directResult(t, spec, 9); !sameSeedResult(final.Results[1], want) {
		t.Fatalf("post-recovery seed: %+v != control %+v", final.Results[1], want)
	}
	j, err := s.lookup("j-000004")
	if err != nil {
		t.Fatal(err)
	}
	if seq := j.seq.Load(); seq <= journaledSeq {
		t.Fatalf("event seq %d did not continue past journaled %d", seq, journaledSeq)
	}
	if got := s.metrics.recovered.Load(); got != 1 {
		t.Fatalf("simd_jobs_recovered_total = %d", got)
	}
}

// TestRecoverySkipsOutOfOrderSeedRecord replays a journal whose only seed
// record is for the spec's last seed. Both execution paths release results
// in spec order, so that record is not the job's completed prefix: the
// recovered job must run every seed in order, not report seed 13 twice and
// never run seed 5.
func TestRecoverySkipsOutOfOrderSeedRecord(t *testing.T) {
	recoverFromStraySeedRecord(t, 13)
}

// TestRecoverySkipsForeignSeedRecord replays a journal whose only seed
// record is for a seed the spec lacks: it is no result of the job.
func TestRecoverySkipsForeignSeedRecord(t *testing.T) {
	recoverFromStraySeedRecord(t, 77)
}

// recoverFromStraySeedRecord journals a submit of seeds 5, 9, 13 and one
// seed record for stray, which is not the job's first seed, and requires
// the recovered job to end with every spec seed's own result, in order.
func recoverFromStraySeedRecord(t *testing.T, stray uint64) {
	t.Helper()
	dir := t.TempDir()
	spec := quickSpec(5, 9, 13)
	spec.normalize()
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendSubmit("j-000001", &spec)
	res := directResult(t, spec, stray)
	jl.appendSeed("j-000001", stray, &res, 1)
	jl.close()

	s := openJournaled(t, dir, Config{Workers: 1})
	defer s.Close()
	final := waitState(t, s, "j-000001", StateDone)
	if len(final.Results) != len(spec.Seeds) {
		t.Fatalf("recovered job has %d results for %d seeds", len(final.Results), len(spec.Seeds))
	}
	for i, seed := range spec.Seeds {
		if want := directResult(t, spec, seed); !sameSeedResult(final.Results[i], want) {
			t.Fatalf("result %d = %+v, want seed %d's %+v", i, final.Results[i], seed, want)
		}
	}
}

// resumableSpec is a deterministic non-converging voter run: exactly
// MaxRounds rounds, long enough to checkpoint mid-flight.
func resumableSpec(seeds ...uint64) JobSpec {
	return JobSpec{
		N: 500, H: 1, Sources1: 1, Sources0: 0,
		Delta:            0.2,
		Protocol:         "voter",
		MaxRounds:        400,
		StabilityWindow:  400,
		CheckpointRounds: 100,
		Seeds:            seeds,
	}
}

// TestRecoveryResumesFromCheckpoint journals an engine checkpoint (captured
// from a real runner at round 100) and restarts: the recovered job must
// restore it, run only the remaining rounds, and still produce the exact
// result of an uninterrupted run. The same checkpoint with one byte flipped
// fails Restore; the job must rerun the seed from round 0 to the same result
// and count the fallback.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	spec := resumableSpec(7)
	spec.normalize()
	cfg, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.Workers = 1
	runner, err := noisypull.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var snap []byte
	var snapRound int
	runner.SetCheckpoint(100, func(round int, data []byte) {
		if snap == nil {
			snap, snapRound = append([]byte(nil), data...), round
			cancel()
		}
	})
	if _, err := runner.RunContext(ctx); err == nil {
		t.Fatal("interrupted control run unexpectedly completed")
	}
	runner.Close()
	cancel()
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 1

	for _, tc := range []struct {
		name            string
		checkpoint      []byte
		restoreFailures int64
	}{
		{"intact", snap, 0},
		{"flipped-byte", flipped, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jl, err := openJournal(dir, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			jl.appendSubmit("j-000001", &spec)
			appendOldState(jl, "j-000001")
			jl.appendCheckpoint("j-000001", 7, snapRound, tc.checkpoint, 100)
			jl.close()

			s := openJournaled(t, dir, Config{Workers: 1})
			defer s.Close()
			final := waitState(t, s, "j-000001", StateDone)
			if want := directResult(t, spec, 7); !sameSeedResult(final.Results[0], want) {
				t.Fatalf("resumed-from-checkpoint result %+v != uninterrupted control %+v", final.Results[0], want)
			}
			if got := s.metrics.restoreFailures.Load(); got != tc.restoreFailures {
				t.Fatalf("restore failures %d, want %d", got, tc.restoreFailures)
			}
			// A restored run only replays the rounds after the checkpoint
			// and credits the skipped prefix to the rounds metric; a failed
			// restore reruns them all. Either way the metric covers one
			// full run.
			if got := s.metrics.rounds.Load(); got != 400 {
				t.Fatalf("rounds metric %d, want 400 (checkpoint %d + remainder)", got, snapRound)
			}
		})
	}
}

// TestReusedRunnerDropsCheckpointHook runs a checkpointing job and then a
// job of the same shape with checkpoints off on one worker. The second job
// reuses the first one's runner and must not journal checkpoints through
// the hook the first job set.
func TestReusedRunnerDropsCheckpointHook(t *testing.T) {
	s := openJournaled(t, t.TempDir(), Config{Workers: 1})
	defer s.Close()
	first, err := s.Submit(resumableSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)
	checkpoints := s.metrics.checkpoints.Load()
	if checkpoints == 0 {
		t.Fatal("checkpointing job journaled no checkpoints")
	}
	spec := resumableSpec(2)
	spec.CheckpointRounds = -1
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, second.ID, StateDone)
	if got := s.metrics.checkpoints.Load(); got != checkpoints {
		t.Fatalf("job with checkpoints off journaled %d checkpoints", got-checkpoints)
	}
}

// TestRecoveryMarksUnresumableJobsLost covers the spec-no-longer-builds path:
// the job must come back terminal-failed with a "lost to crash" reason rather
// than vanish or crash recovery.
func TestRecoveryMarksUnresumableJobsLost(t *testing.T) {
	dir := t.TempDir()
	bad := JobSpec{Protocol: "no-such-protocol", N: 100, H: 4, Sources1: 1, Delta: 0.2, Seeds: []uint64{1}}
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendSubmit("j-000009", &bad)
	jl.close()

	s := openJournaled(t, dir, Config{Workers: 1})
	defer s.Close()
	summary, _ := s.ReplayStatus()
	if summary.Lost != 1 || summary.Resumed != 0 {
		t.Fatalf("replay summary %+v", summary)
	}
	st, err := s.Get("j-000009")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "lost to crash") {
		t.Fatalf("lost job: state=%s error=%q", st.State, st.Error)
	}
}

// TestRecoveryMarksRepeatedSeedsLost: a job journaled before seed lists
// were checked for repeats no longer builds, so replay finalizes it as lost
// with the repeated seed named.
func TestRecoveryMarksRepeatedSeedsLost(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(1, 1, 2)
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendSubmit("j-000010", &spec)
	jl.close()

	s := openJournaled(t, dir, Config{Workers: 1})
	defer s.Close()
	st, err := s.Get("j-000010")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error != "lost to crash: spec: seed 1 repeats" {
		t.Fatalf("replayed job: state=%s error=%q", st.State, st.Error)
	}
}

// TestWatchdogKillsStuckJob pins the wall-clock budget: a non-terminating job
// with max_wall_ms set must be killed and finalized as failed (not
// cancelled), with the kill counted.
func TestWatchdogKillsStuckJob(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	spec := endlessSpec(1)
	spec.MaxWallMS = 150
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "watchdog") {
		t.Fatalf("watchdogged job: state=%s error=%q", final.State, final.Error)
	}
	if got := s.metrics.watchdogKills.Load(); got != 1 {
		t.Fatalf("simd_watchdog_kills_total = %d", got)
	}
	// A fast job under the same budget is untouched.
	ok := quickSpec(1)
	ok.MaxWallMS = 60_000
	st2, err := s.Submit(ok)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st2.ID, StateDone)
}

// TestSubmitDrainRaceLeavesNoOrphans is the regression test for the
// journaled-then-orphaned race: submissions hammering the service while it
// drains must each end up either rejected (never journaled) or journaled with
// a terminal record — replay must find no job still pending. Run under -race.
func TestSubmitDrainRaceLeavesNoOrphans(t *testing.T) {
	dir := t.TempDir()
	s := openJournaled(t, dir, Config{Workers: 2, QueueCapacity: 64})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Submit(quickSpec(1))
				if errors.Is(err, ErrDraining) {
					return
				}
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	out, err := replayJournal(s.journal.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.jobs) == 0 {
		t.Fatal("race produced no journaled jobs; test is vacuous")
	}
	for _, j := range out.jobs {
		if j.terminal == "" {
			t.Errorf("job %s journaled without a terminal record (orphaned by drain)", j.id)
		}
	}
}

// TestReadyz covers the load-shedding endpoint: 200 when serving, 503 with
// status "replaying" before recovery finishes, 503 with "draining" during
// shutdown — and ErrNotReady from Submit while not ready.
func TestReadyz(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	ready, _, err := c.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("fresh service: ready=%v err=%v", ready, err)
	}

	s.ready.Store(false) // simulate an in-flight journal replay
	ready, _, err = c.Ready(ctx)
	if err != nil || ready {
		t.Fatalf("replaying service reported ready (err=%v)", err)
	}
	if _, err := s.Submit(quickSpec(1)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Submit while replaying: %v", err)
	}
	if _, err := c.Submit(ctx, quickSpec(1)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("client Submit while replaying: %v", err)
	}
	s.ready.Store(true)

	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ready, _, err = c.Ready(ctx)
	if err != nil || ready {
		t.Fatalf("draining service reported ready (err=%v)", err)
	}
}

// TestReadyzReportsReplaySummary checks that a recovered daemon's /readyz
// body carries the replay summary (the startup-log line, machine-readable).
func TestReadyzReportsReplaySummary(t *testing.T) {
	dir := t.TempDir()
	s1 := openJournaled(t, dir, Config{Workers: 1})
	st, err := s1.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, st.ID, StateDone)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := openJournaled(t, dir, Config{Workers: 1})
	defer s2.Close()
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	ready, replay, err := NewClient(srv.URL).Ready(context.Background())
	if err != nil || !ready {
		t.Fatalf("ready=%v err=%v", ready, err)
	}
	if replay == nil || replay.Restored != 1 || replay.Jobs != 1 {
		t.Fatalf("replay summary on /readyz: %+v", replay)
	}
}

// TestStreamFromSkipsDeliveredEvents pins the reconnect contract: a stream
// opened with ?from=N delivers only events with seq > N, in order.
func TestStreamFromSkipsDeliveredEvents(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	st, err := s.Submit(endlessSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	const from = 25
	var seqs []uint64
	errEnough := errors.New("enough")
	_, err = c.StreamFrom(ctx, st.ID, from, func(ev Event) error {
		seqs = append(seqs, ev.Seq)
		if len(seqs) >= 10 {
			return errEnough
		}
		return nil
	})
	if !errors.Is(err, errEnough) {
		t.Fatalf("stream: %v", err)
	}
	if len(seqs) < 10 {
		t.Fatalf("received %d events", len(seqs))
	}
	last := uint64(from)
	for _, q := range seqs {
		if q <= last {
			t.Fatalf("seq %d out of order or ≤ from (prev %d)", q, last)
		}
		last = q
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
}
