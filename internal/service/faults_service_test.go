package service

// Robustness tests for the scheduler: fault-schedule jobs (submission
// validation, fault events on the progress stream, per-seed recovery
// telemetry, lease shape identity), and worker survival when a protocol
// panics mid-run.

import (
	"strings"
	"testing"
	"time"

	"noisypull"
	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// panicProto runs the voter kernel and blows up on its third StepRange call
// — a stand-in for a buggy protocol that must fail its own job without
// taking down the scheduler worker.
type panicProto struct{}

func (panicProto) Alphabet() int { return 2 }
func (panicProto) NewVecPopulation(spec sim.VecSpec) sim.VecPopulation {
	return &panicPop{VecPopulation: noisypull.VoterBaseline.NewVecPopulation(spec)}
}

type panicPop struct {
	sim.VecPopulation
	steps int
}

func (p *panicPop) StepRange(lo, hi int, obs *sim.VecObs, r *rng.Stream) int {
	p.steps++
	if p.steps >= 3 {
		panic("deliberate test panic")
	}
	return p.VecPopulation.StepRange(lo, hi, obs, r)
}

func TestPanickingJobFailsAlone(t *testing.T) {
	testProtocols = map[string]noisypull.Protocol{"test-panic": panicProto{}}
	defer func() { testProtocols = nil }()

	s := openService(t, Config{Workers: 1, QueueCapacity: 4})
	defer s.Close()

	boom, err := s.Submit(JobSpec{
		N: 50, H: 4, Sources1: 1, Delta: 0.1,
		Protocol: "test-panic", MaxRounds: 100, Seeds: []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Submit(quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}

	st := waitTerminal(t, s, boom.ID)
	if st.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic") || !strings.Contains(st.Error, "deliberate test panic") {
		t.Fatalf("panicking job error = %q, want the panic message", st.Error)
	}

	// The same worker goroutine must survive to run the next job...
	if got := waitState(t, s, after.ID, StateDone); got.State != StateDone {
		t.Fatalf("job after panic: %s", got.State)
	}
	// ...and the daemon must keep accepting work.
	again, err := s.Submit(quickSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, again.ID, StateDone)
	if s.metrics.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.metrics.panics.Load())
	}
}

func waitTerminal(t *testing.T, s *Service, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never terminated", id)
	return nil
}

// faultSpec is an SSF job corrupted to the wrong consensus mid-run; SSF
// recovers, so the job converges and carries recovery telemetry.
func faultSpec(seeds ...uint64) JobSpec {
	return JobSpec{
		N: 150, H: 8, Sources1: 2,
		Delta:    0.1,
		Protocol: "ssf",
		Seeds:    seeds,
		Faults: []FaultSpec{
			{Kind: "corrupt", Round: 3, Fraction: 1, Mode: "wrong"},
		},
	}
}

func TestFaultJobStreamsEventsAndTelemetry(t *testing.T) {
	s := openService(t, Config{Workers: 1, QueueCapacity: 4})
	defer s.Close()

	// Park the worker so the subscription attaches before the job runs.
	blocker, err := s.Submit(endlessSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)

	st, err := s.Submit(faultSpec(5, 6))
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

	faultEvents := 0
	for ev := range ch {
		if ev.Type != "fault" {
			continue
		}
		faultEvents++
		if ev.Round != 3 || ev.Kind != "corrupt" || ev.Affected != 150 {
			t.Fatalf("fault event = %+v", ev)
		}
	}
	if faultEvents != 2 { // one per seed
		t.Fatalf("stream carried %d fault events, want 2", faultEvents)
	}

	final := waitState(t, s, st.ID, StateDone)
	if len(final.Results) != 2 {
		t.Fatalf("results = %+v", final.Results)
	}
	for _, sr := range final.Results {
		if !sr.Converged {
			t.Fatalf("seed %d did not recover: %+v", sr.Seed, sr)
		}
		if len(sr.Faults) != 1 {
			t.Fatalf("seed %d fault telemetry = %+v", sr.Seed, sr.Faults)
		}
		f := sr.Faults[0]
		if f.Round != 3 || f.Kind != "corrupt" || f.Affected != 150 || f.RecoveredAt < 3 {
			t.Fatalf("seed %d fault outcome = %+v", sr.Seed, f)
		}
	}
	if s.metrics.faults.Load() != 2 {
		t.Fatalf("fault counter = %d, want 2", s.metrics.faults.Load())
	}
}

func TestFaultSpecValidation(t *testing.T) {
	s := openService(t, Config{Workers: 1})
	defer s.Close()
	bad := []JobSpec{
		// Unknown kind.
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "meteor", Round: 1}}},
		// Unknown mode.
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "corrupt", Round: 1, Fraction: 0.5, Mode: "sideways"}}},
		// Corrupt without a mode (engine validation bubbles up).
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "corrupt", Round: 1, Fraction: 0.5}}},
		// Inverted window.
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "churn", WindowLo: 9, WindowHi: 3, Fraction: 0.5}}},
		// Crash without duration.
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "crash", Round: 1, Fraction: 0.5}}},
		// Drift above the uniform ceiling for the binary alphabet.
		{Protocol: "sf", N: 100, H: 4, Sources1: 1, Delta: 0.2,
			Faults: []FaultSpec{{Kind: "drift", Round: 1, Delta: 0.9, DriftRounds: 3}}},
		// Crash faults are unsupported on the counts backend.
		{Protocol: "majority", N: 100, H: 4, Sources1: 1, Delta: 0.2, Backend: "counts",
			Faults: []FaultSpec{{Kind: "crash", Round: 1, Fraction: 0.5, Duration: 2}}},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad fault spec %d accepted", i)
		}
	}
	// The counts backend does support corruption and noise faults.
	ok := JobSpec{Protocol: "majority", N: 1000, H: 4, Sources1: 10, Delta: 0.2,
		Backend: "counts", MaxRounds: 50,
		Faults: []FaultSpec{
			{Kind: "corrupt", Round: 3, Fraction: 0.5, Mode: "random"},
			{Kind: "noise", Round: 5, Delta: 0.3},
		}}
	st, err := s.Submit(ok)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
}

func TestShapeKeyIncludesFaults(t *testing.T) {
	plain := quickSpec(1)
	faulted := quickSpec(1)
	faulted.Faults = []FaultSpec{{Kind: "crash", Round: 2, Fraction: 0.5, Duration: 2}}
	if plain.shape() == faulted.shape() {
		t.Fatal("fault schedule does not contribute to the shape key")
	}
	same := quickSpec(2) // seeds are excluded from the shape by design
	if plain.shape() != same.shape() {
		t.Fatal("seeds must not contribute to the shape key")
	}
	faulted2 := quickSpec(3)
	faulted2.Faults = []FaultSpec{{Kind: "crash", Round: 2, Fraction: 0.5, Duration: 2}}
	if faulted.shape() != faulted2.shape() {
		t.Fatal("equal fault schedules must share a shape key")
	}
}
