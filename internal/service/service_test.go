package service

// Unit tests for the scheduler core: spec validation, the done path's
// bit-equality with direct noisypull.Run, queue backpressure, pending and
// running cancellation, TTL eviction, clean drain, and metrics output.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"noisypull"
)

// quickSpec is a small SF job that finishes in well under a second.
func quickSpec(seeds ...uint64) JobSpec {
	return JobSpec{
		N: 150, H: 16, Sources1: 2, Sources0: 0,
		Delta:    0.2,
		Protocol: "sf",
		Seeds:    seeds,
	}
}

// endlessSpec cannot converge (voter under persistent noise) and runs until
// cancelled.
func endlessSpec(seeds ...uint64) JobSpec {
	return JobSpec{
		N: 250, H: 1, Sources1: 1, Sources0: 0,
		Delta:     0.2,
		Protocol:  "voter",
		MaxRounds: 1 << 30,
		Seeds:     seeds,
	}
}

// openService starts a journal-less service, failing the test on error.
func openService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitState(t *testing.T, s *Service, id string, want State) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s (error %q)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return nil
}

func TestSpecValidation(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	p := 0.1
	bad := []JobSpec{
		{}, // no protocol
		{Protocol: "nope", N: 100, H: 4, Sources1: 1, Delta: 0.2},
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2, P01: &p}, // p01 without p10
		{Protocol: "ssf", N: 100, H: 4, Sources1: 1, P01: &p, P10: &p},   // binary channel, alphabet 4
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2, Corruption: "sideways"},
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2, Backend: "warp"},
		{Protocol: "sf", N: 1, H: 4, Sources1: 1, Delta: 0.2},                      // engine validation bubbles up
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2, Backend: "counts"}, // SF is not countable
		{Protocol: "ssf", N: 100, H: 4, Sources1: 1, Delta: 0.2, Backend: "counts"},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	s2 := openService(t, Config{Workers: 1, MaxSeedsPerJob: 3})
	defer s2.Close()
	if _, err := s2.Submit(quickSpec(1, 2, 3, 4)); err == nil {
		t.Error("submission above MaxSeedsPerJob accepted")
	}
}

// TestJobDoneMatchesDirectRun pins service determinism: a job's per-seed
// results must be identical to one-shot noisypull.Run calls, across leased
// runner reuse (two seeds share one runner via Reset).
func TestJobDoneMatchesDirectRun(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	st, err := s.Submit(quickSpec(5, 9))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)
	if final.CompletedSeeds != 2 || len(final.Results) != 2 {
		t.Fatalf("done job has %d/%d results", final.CompletedSeeds, len(final.Results))
	}
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range final.Results {
		want, err := noisypull.Run(noisypull.Config{
			N: 150, H: 16, Sources1: 2, Sources0: 0,
			Noise: nm, Protocol: noisypull.NewSourceFilter(),
			Seed: sr.Seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Rounds != want.Rounds || sr.Converged != want.Converged ||
			sr.FinalCorrect != want.FinalCorrect || sr.FirstAllCorrect != want.FirstAllCorrect {
			t.Fatalf("seed %d: service %+v != direct %+v", sr.Seed, sr, want)
		}
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("terminal job missing timestamps")
	}
}

// TestCountsBackendJob: a counts-backend job for a countable baseline is
// accepted, runs (two seeds share one cached runner via Reset), and matches
// direct noisypull.Run results bit-for-bit.
func TestCountsBackendJob(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	spec := JobSpec{
		N: 100000, H: 8, Sources1: 100, Sources0: 0,
		Delta:     0.1,
		Protocol:  "majority",
		Backend:   "counts",
		MaxRounds: 200,
		Seeds:     []uint64{3, 8},
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateDone)
	if len(final.Results) != 2 {
		t.Fatalf("done job has %d results, want 2", len(final.Results))
	}
	nm, err := noisypull.UniformNoise(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range final.Results {
		want, err := noisypull.Run(noisypull.Config{
			N: 100000, H: 8, Sources1: 100,
			Noise: nm, Protocol: noisypull.MajorityBaseline,
			Backend: noisypull.BackendCounts, MaxRounds: 200,
			Seed: sr.Seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Rounds != want.Rounds || sr.Converged != want.Converged ||
			sr.FinalCorrect != want.FinalCorrect {
			t.Fatalf("seed %d: service %+v != direct %+v", sr.Seed, sr, want)
		}
	}
}

func TestQueueBackpressureAndPendingCancel(t *testing.T) {
	s := openService(t, Config{QueueCapacity: 1, Workers: 1})
	defer s.Close()

	running, err := s.Submit(endlessSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)

	queued, err := s.Submit(endlessSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(endlessSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}

	// Cancel the queued job: it finalizes without ever running.
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled || st.Started != nil {
		t.Fatalf("queued job after cancel: %+v", st)
	}

	// Cancel the running job: the engine stops within one round.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, running.ID, StateCancelled)
	if fin.State != StateCancelled {
		t.Fatalf("running job after cancel: %s", fin.State)
	}
}

func TestTTLEviction(t *testing.T) {
	s := openService(t, Config{Workers: 1, ResultTTL: 50 * time.Millisecond})
	defer s.Close()
	st, err := s.Submit(quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Get(st.ID); errors.Is(err, ErrNotFound) {
			if s.metrics.evicted.Load() == 0 {
				t.Fatal("job evicted but eviction counter is zero")
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("terminal job was never evicted")
}

func TestDrainClean(t *testing.T) {
	s := openService(t, Config{Workers: 2})
	a, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s after clean drain: %s (want done)", id, st.State)
		}
	}
	if _, err := s.Submit(quickSpec(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s := openService(t, Config{Workers: 1, QueueCapacity: 4})
	run, err := s.Submit(endlessSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(endlessSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, run.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{run.ID, queued.ID} {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled {
			t.Fatalf("job %s after forced drain: %s (want cancelled)", id, st.State)
		}
	}
}

func TestSubscribeStreamsRoundsAndCloses(t *testing.T) {
	s := openService(t, Config{Workers: 1, QueueCapacity: 4})
	defer s.Close()
	// Park the single worker on an endless job so the quick job stays pending
	// while we attach the subscription.
	blocker, err := s.Submit(endlessSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	// A round-capped job: 50 rounds + 1 seed event fit well inside the
	// subscriber buffer, so nothing can be dropped even if the consumer lags.
	capped := endlessSpec(4)
	capped.MaxRounds = 50
	st, err := s.Submit(capped)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	rounds, seeds := 0, 0
	for ev := range ch {
		switch ev.Type {
		case "round":
			rounds++
		case "seed":
			seeds++
		}
	}
	if rounds != 50 || seeds != 1 {
		t.Fatalf("stream saw %d round events (want 50) and %d seed events (want 1)", rounds, seeds)
	}
	// Terminal job: a fresh subscription closes immediately.
	waitState(t, s, st.ID, StateDone)
	ch2, unsub2, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub2()
	if _, ok := <-ch2; ok {
		t.Fatal("subscription to a terminal job delivered an event")
	}
}

func TestMetricsOutput(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"simd_jobs_submitted_total 1",
		`simd_jobs_completed_total{state="done"} 1`,
		"simd_rounds_total",
		"simd_queue_depth 0",
		"simd_checkpoint_restore_failures_total 0",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("metrics missing %q:\n%s", line, out)
		}
	}
}
