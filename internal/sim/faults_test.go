// Fault-injection tests: determinism of fault timelines across Reset reuse,
// worker counts, and backend labels; exact per-agent semantics of each
// fault kind (via a probe protocol); recovery telemetry; and the counts
// backend's corruption-as-redistribution agreement with the per-agent
// engine.
package sim_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// probeAgent is what the fault tests read of one agent of the probe kernel,
// on which every agent displays 0 and holds opinion 0: its observation and
// corruption counts since it arrived, the last corruption's mode, and the
// 1-symbols it observed in each round.
type probeAgent struct {
	observes, corrupts int
	mode               sim.CorruptionMode
	onesByRound        []int
}

// probeConfig runs 10 rounds without converging (the probe's opinion is 0,
// the correct opinion is 1), so every scheduled fault fires.
func probeConfig(t *testing.T, sched *faults.Schedule) sim.Config {
	t.Helper()
	return sim.Config{
		N: 40, H: 4, Sources1: 2, Sources0: 1,
		Noise:     uniformNoise(t, 2, 0),
		Protocol:  &sim.Probe{Symbols: 2, Display: func(int) int { return 0 }},
		Seed:      3,
		MaxRounds: 10,
		Faults:    sched,
	}
}

func runProbe(t *testing.T, cfg sim.Config) (*sim.Result, []*probeAgent) {
	t.Helper()
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	k := sim.ProbeOf(r)
	agents := make([]*probeAgent, cfg.N)
	for i, seen := range k.Seen {
		a := &probeAgent{observes: len(seen), corrupts: k.Corrupts[i], mode: k.Mode[i]}
		for _, counts := range seen {
			a.onesByRound = append(a.onesByRound, counts[1])
		}
		agents[i] = a
	}
	return res, agents
}

func TestFaultCorruptSemantics(t *testing.T) {
	res, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 5, Fraction: 1, Corruption: faults.CorruptRandom},
	}}))
	if len(res.Faults) != 1 {
		t.Fatalf("Faults = %+v, want one record", res.Faults)
	}
	rec := res.Faults[0]
	if rec.Round != 5 || rec.Kind != faults.KindCorrupt || rec.Affected != 40 || rec.RecoveredAt != 0 {
		t.Fatalf("record = %+v", rec)
	}
	for i, a := range agents {
		if a.corrupts != 1 || a.mode != sim.CorruptRandom {
			t.Fatalf("agent %d: corrupts = %d mode = %v", i, a.corrupts, a.mode)
		}
	}
}

func TestFaultCorruptFractionMatchesAffected(t *testing.T) {
	res, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 2, Fraction: 0.5, Corruption: faults.CorruptWrongConsensus},
	}}))
	hit := 0
	for _, a := range agents {
		hit += a.corrupts
	}
	if rec := res.Faults[0]; rec.Affected != hit {
		t.Fatalf("Affected = %d, agents corrupted = %d", rec.Affected, hit)
	}
	if hit == 0 || hit == 40 {
		t.Fatalf("fraction 0.5 hit %d of 40 agents", hit)
	}
}

func TestFaultCrashSemantics(t *testing.T) {
	res, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 4, Fraction: 1, Duration: 3},
	}}))
	if rec := res.Faults[0]; rec.Kind != faults.KindCrash || rec.Affected != 40 {
		t.Fatalf("record = %+v", res.Faults[0])
	}
	for i, a := range agents {
		// Crashed for rounds 4–6: 7 observations instead of 10. That the
		// round law reads the frozen display, not the live one, is checked
		// by TestOracleObservationLaw's crash case.
		if a.observes != 7 {
			t.Fatalf("agent %d observed %d rounds, want 7", i, a.observes)
		}
	}
}

func TestFaultChurnSemantics(t *testing.T) {
	_, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindChurn, Round: 6, Fraction: 1, Corruption: faults.CorruptWrongConsensus},
	}}))
	for i, a := range agents {
		if i < 3 { // sources are never churned
			if a.observes != 10 || a.corrupts != 0 {
				t.Fatalf("source %d: observes = %d corrupts = %d", i, a.observes, a.corrupts)
			}
			continue
		}
		// Replaced before round 6: the fresh agent saw rounds 6–10 and was
		// corrupted once at construction.
		if a.observes != 5 {
			t.Fatalf("non-source %d observed %d rounds, want 5", i, a.observes)
		}
		if a.corrupts != 1 {
			t.Fatalf("non-source %d corrupted %d times, want 1", i, a.corrupts)
		}
	}
}

func TestFaultNoiseSwapTakesEffect(t *testing.T) {
	swap := uniformNoise(t, 2, 0.4)
	_, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindNoiseSwap, Round: 5, Matrix: swap},
	}}))
	before, after := 0, 0
	for _, a := range agents {
		for round, ones := range a.onesByRound {
			if round+1 < 5 {
				before += ones
			} else {
				after += ones
			}
		}
	}
	// Everyone displays 0 under a noiseless channel: no 1s can be observed
	// before the swap; at δ = 0.4 they appear with probability 0.4 per
	// sample (40 agents × 6 rounds × 4 samples make a miss astronomically
	// unlikely).
	if before != 0 {
		t.Fatalf("observed %d ones before the swap", before)
	}
	if after == 0 {
		t.Fatal("observed no ones after swapping to δ = 0.4")
	}
}

func TestFaultNoiseDriftRampsGradually(t *testing.T) {
	_, agents := runProbe(t, probeConfig(t, &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.5, DriftRounds: 4},
	}}))
	onesAt := make([]int, 10)
	for _, a := range agents {
		for round, ones := range a.onesByRound {
			onesAt[round] += ones
		}
	}
	if onesAt[0] != 0 || onesAt[1] != 0 {
		t.Fatalf("observed ones before the drift started: %v", onesAt)
	}
	// The drift interpolates δ from 0 to 0.5 over rounds 3–6; with 160
	// samples per round the observed 1-fraction must grow monotonically in
	// expectation. Assert the coarse shape: the last drift round sees more
	// ones than the first (δ 0.125 vs 0.5), and post-drift rounds stay hot.
	if onesAt[2] >= onesAt[5] {
		t.Fatalf("drift did not ramp: ones per round = %v", onesAt)
	}
	for round := 6; round < 10; round++ {
		if onesAt[round] == 0 {
			t.Fatalf("round %d saw no ones at δ = 0.5: %v", round+1, onesAt)
		}
	}
}

// fullSchedule exercises every fault kind, with seed-driven random rounds
// for the agent-level faults.
func fullSchedule(t *testing.T) *faults.Schedule {
	t.Helper()
	return &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindNoiseDrift, Round: 2, Delta: 0.3, DriftRounds: 3},
		{Kind: faults.KindCorrupt, WindowLo: 4, WindowHi: 12, Fraction: 0.5, Corruption: faults.CorruptRandom},
		{Kind: faults.KindCrash, WindowLo: 4, WindowHi: 12, Fraction: 0.3, Duration: 3},
		{Kind: faults.KindChurn, WindowLo: 4, WindowHi: 12, Fraction: 0.4},
		{Kind: faults.KindNoiseSwap, Round: 15, Matrix: uniformNoise(t, 2, 0.45)},
	}}
}

func TestFaultDeterminismAcrossResetAndWorkers(t *testing.T) {
	cfg := sim.Config{
		N: 80, H: 6, Sources1: 3, Sources0: 1,
		Noise:           uniformNoise(t, 2, 0.1),
		Protocol:        protocol.MajorityRule{},
		Seed:            11,
		Backend:         sim.BackendExact,
		MaxRounds:       40,
		StabilityWindow: 40, // force the full horizon so every fault fires
		TrackHistory:    true,
		Faults:          fullSchedule(t),
	}
	fresh, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	resA, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Faults) != len(cfg.Faults.Events) {
		t.Fatalf("applied %d faults, want %d: %+v", len(resA.Faults), len(cfg.Faults.Events), resA.Faults)
	}

	// Reset reuse must replay the identical run, faults included.
	fresh.Reset(cfg.Seed)
	resB, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("Reset replay diverged:\n%+v\n%+v", resA, resB)
	}

	// The worker count must not matter.
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		r, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resA, res) {
			t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, resA, res)
		}
	}

	// A different seed must move the random fire rounds (sanity that the
	// timeline is seed-driven, not constant).
	fresh.Reset(cfg.Seed + 1)
	resC, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range resC.Faults {
		if resC.Faults[i].Round != resA.Faults[i].Round {
			same = false
		}
	}
	if same && reflect.DeepEqual(resA.History, resC.History) {
		t.Fatal("different seed produced an identical run")
	}
}

// TestResetClearsCrashesOnEveryChunk: a crash that outlasts the run leaves
// crash bookkeeping on every chunk, and Reset must clear all of it, so a
// rerun under another seed, whose crash fires again, equals a fresh run of
// that seed in its Result and in its final snapshot bytes. Voter at
// n = 12,000 spans three chunks on two workers.
func TestResetClearsCrashesOnEveryChunk(t *testing.T) {
	cfg := sim.Config{
		N: 12000, H: 4, Sources1: 40, Sources0: 10,
		Noise:           uniformNoise(t, 2, 0.2),
		Protocol:        protocol.Voter{},
		Seed:            1,
		MaxRounds:       20,
		StabilityWindow: 20,
		Workers:         2,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindCrash, Round: 3, Fraction: 0.3, Duration: 1000},
		}},
	}
	if cfg.N <= 2*sim.VecChunkSize {
		t.Fatalf("n = %d spans fewer than 3 chunks", cfg.N)
	}
	reused, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	if _, err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	reused.Reset(2)
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 2
	fresh, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Faults) != 1 || want.Faults[0].Affected == 0 {
		t.Fatalf("crash did not fire after Reset: %+v", want.Faults)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reset run diverged from a fresh run:\n%+v\n%+v", got, want)
	}
	if !bytes.Equal(reused.Snapshot(), fresh.Snapshot()) {
		t.Fatal("Reset run's final engine state differs from a fresh run's")
	}
}

// TestBackendLabelsShareOneEngine: BackendAuto, BackendExact and
// BackendAggregate select one per-agent engine. Under a full fault
// schedule, on a ring, and for SSF at h = 16, the same seed gives the same
// Result and per-agent state under every label, and final snapshots that
// differ only in the recorded label, the fingerprint hashing it and the
// checksum. A mid-run snapshot taken under any label restores under every
// other and finishes identically.
func TestBackendLabelsShareOneEngine(t *testing.T) {
	ring, err := graph.Ring(600, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]sim.Config{
		"majority full schedule": {
			N: 80, H: 6, Sources1: 3, Sources0: 1,
			Noise:           uniformNoise(t, 2, 0.1),
			Protocol:        protocol.MajorityRule{},
			MaxRounds:       40,
			StabilityWindow: 40,
			Faults:          fullSchedule(t),
		},
		"trustbit ring": {
			N: 600, H: 6, Sources1: 20, Sources0: 5,
			Noise:           uniformNoise(t, 4, 0.08),
			Protocol:        protocol.TrustBit{},
			Topology:        ring,
			MaxRounds:       30,
			StabilityWindow: 30,
			Faults:          structFaults,
		},
		"ssf h16": {
			N: 300, H: 16, Sources1: 8, Sources0: 2,
			Noise:           uniformNoise(t, 4, 0.1),
			Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(48)),
			Corruption:      sim.CorruptRandom,
			MaxRounds:       30,
			StabilityWindow: 30,
			Faults:          churnFaults,
		},
	}
	labels := []sim.Backend{sim.BackendAuto, sim.BackendExact, sim.BackendAggregate}
	const midRound = 12
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			type run struct {
				res       *sim.Result
				state     []int
				mid, last []byte
			}
			runs := make([]run, len(labels))
			for li, label := range labels {
				cfg := base
				cfg.Seed = 23
				cfg.Backend = label
				r, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				r.SetCheckpoint(midRound, func(round int, snap []byte) {
					if round == midRound {
						runs[li].mid = snap
					}
				})
				if runs[li].res, err = r.Run(); err != nil {
					t.Fatal(err)
				}
				runs[li].last = r.Snapshot()
				runs[li].state = agentStates(t, r, cfg.N)
			}
			for li := 1; li < len(labels); li++ {
				if !reflect.DeepEqual(runs[0].res, runs[li].res) {
					t.Fatalf("%v and %v results differ:\n%+v\n%+v", labels[0], labels[li], runs[0].res, runs[li].res)
				}
				if !reflect.DeepEqual(runs[0].state, runs[li].state) {
					t.Fatalf("%v and %v per-agent states differ", labels[0], labels[li])
				}
				if !bytes.Equal(maskLabel(runs[0].last), maskLabel(runs[li].last)) {
					t.Fatalf("%v and %v final snapshots differ beyond the label", labels[0], labels[li])
				}
			}
			for from := range labels {
				for into, label := range labels {
					if from == into {
						continue
					}
					cfg := base
					cfg.Seed = 23
					cfg.Backend = label
					r, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					if err := r.Restore(runs[from].mid); err != nil {
						t.Fatalf("%v snapshot into %v runner: %v", labels[from], label, err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(runs[into].res, res) {
						t.Fatalf("%v snapshot resumed under %v: result differs", labels[from], label)
					}
					if !reflect.DeepEqual(runs[into].state, agentStates(t, r, cfg.N)) {
						t.Fatalf("%v snapshot resumed under %v: per-agent state differs", labels[from], label)
					}
				}
			}
		})
	}
}

// agentStates lists every agent's display, opinion and weak opinion.
func agentStates(t *testing.T, r *sim.Runner, n int) []int {
	t.Helper()
	out := make([]int, 0, 3*n)
	for i := 0; i < n; i++ {
		d, o, err := r.AgentState(i)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := r.AgentWeakOpinion(i)
		out = append(out, d, o, w)
	}
	return out
}

// maskLabel returns a copy of a snapshot with the bytes that depend on the
// backend label zeroed: the fingerprint (bytes 6–13), the label byte after
// the four round counters, and the trailing checksum.
func maskLabel(snap []byte) []byte {
	out := append([]byte(nil), snap...)
	for i := 6; i < 14; i++ {
		out[i] = 0
	}
	out[6+8+4*8] = 0
	for i := len(out) - 8; i < len(out); i++ {
		out[i] = 0
	}
	return out
}

func TestFaultRecoveryTelemetrySSF(t *testing.T) {
	ssf := protocol.NewSSF()
	cfg := sim.Config{
		N: 64, H: 8, Sources1: 2,
		Noise:    uniformNoise(t, 4, 0.1),
		Protocol: ssf,
		Seed:     7,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindCorrupt, Round: 3, Fraction: 1, Corruption: faults.CorruptWrongConsensus},
		}},
	}
	env := cfg.Env()
	window, _, err := ssf.RunBounds(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StabilityWindow = window
	conv, err := ssf.ConvergenceRounds(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRounds = 8*conv + cfg.StabilityWindow

	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SSF did not recover from a mid-run wrong-consensus hit: %+v", res)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("Faults = %+v", res.Faults)
	}
	rec := res.Faults[0]
	if rec.Round != 3 || rec.Affected != cfg.N {
		t.Fatalf("record = %+v", rec)
	}
	if rec.RecoveredAt < rec.Round {
		t.Fatalf("RecoveredAt = %d before the fault round %d", rec.RecoveredAt, rec.Round)
	}
	if rec.RecoveredAt == 0 {
		t.Fatalf("recovery not recorded: %+v", rec)
	}
}

// TestFaultRecoveryCrossBackendChiSquare: the recovery-time distribution
// after a mid-run random corruption must agree between the per-agent engine
// and the counts backend. A chi-square homogeneity test over recovery-time bins (with
// "never recovered" as its own category) checks it.
func TestFaultRecoveryCrossBackendChiSquare(t *testing.T) {
	const (
		n      = 64
		trials = 240
		alpha  = 0.001
	)
	base := sim.Config{
		N: n, H: 15, Sources1: 4,
		Noise:           uniformNoise(t, 2, 0.1),
		Protocol:        protocol.MajorityRule{},
		MaxRounds:       400,
		StabilityWindow: 5,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindCorrupt, Round: 5, Fraction: 1, Corruption: faults.CorruptRandom},
		}},
	}
	backends := []sim.Backend{sim.BackendAuto, sim.BackendCounts}
	const never = math.MaxInt32
	samples := make([][]int, len(backends))
	for bi, backend := range backends {
		cfg := base
		cfg.Backend = backend
		seeds := make([]uint64, trials)
		for i := range seeds {
			seeds[i] = uint64(20_000*bi + i + 1)
		}
		results, err := sim.RunBatchContext(context.Background(), cfg, seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if len(res.Faults) != 1 || res.Faults[0].Round != 5 || res.Faults[0].Affected != n {
				t.Fatalf("%v: unexpected fault record %+v", backend, res.Faults)
			}
			delay := never
			if at := res.Faults[0].RecoveredAt; at != 0 {
				delay = at - res.Faults[0].Round
			}
			samples[bi] = append(samples[bi], delay)
		}
	}

	// Bin edges from the combined quartiles, dropping duplicate cuts.
	combined := make([]int, 0, len(backends)*trials)
	for _, s := range samples {
		combined = append(combined, s...)
	}
	sort.Ints(combined)
	cuts := []int{}
	for _, q := range []int{1, 2, 3} {
		c := combined[q*len(combined)/4]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	bins := len(cuts) + 1
	if bins < 2 {
		t.Skip("degenerate recovery distribution; nothing to compare")
	}
	binOf := func(v int) int {
		for b, c := range cuts {
			if v <= c {
				return b
			}
		}
		return bins - 1
	}
	counts := make([][]float64, len(backends))
	colTot := make([]float64, bins)
	for bi, s := range samples {
		counts[bi] = make([]float64, bins)
		for _, v := range s {
			counts[bi][binOf(v)]++
			colTot[binOf(v)]++
		}
	}
	grand := float64(len(combined))
	stat, usedBins := 0.0, 0
	for b := 0; b < bins; b++ {
		if colTot[b] < 5*float64(len(backends)) {
			continue // too sparse for the chi-square approximation
		}
		usedBins++
		for bi := range backends {
			e := float64(trials) * colTot[b] / grand
			d := counts[bi][b] - e
			stat += d * d / e
		}
	}
	if usedBins < 2 {
		t.Skip("fewer than two populated bins; nothing to compare")
	}
	df := (usedBins - 1) * (len(backends) - 1)
	if crit := stats.ChiSquareCritical(df, alpha); stat > crit {
		t.Fatalf("recovery-time homogeneity rejected: chi-square %.2f > critical %.2f (df=%d); bins=%v", stat, crit, df, counts)
	}
}

func TestFaultCountsBackendRestrictions(t *testing.T) {
	base := sim.Config{
		N: 64, H: 8, Sources1: 4,
		Noise:     uniformNoise(t, 2, 0.1),
		Protocol:  protocol.Voter{},
		Backend:   sim.BackendCounts,
		MaxRounds: 50,
	}
	cases := []struct {
		name string
		ev   faults.Event
		ok   bool
	}{
		{"crash rejected", faults.Event{Kind: faults.KindCrash, Round: 3, Fraction: 0.5, Duration: 2}, false},
		{"churn rejected", faults.Event{Kind: faults.KindChurn, Round: 3, Fraction: 0.5}, false},
		{"corrupt allowed", faults.Event{Kind: faults.KindCorrupt, Round: 3, Fraction: 0.5, Corruption: faults.CorruptRandom}, true},
		{"noise swap allowed", faults.Event{Kind: faults.KindNoiseSwap, Round: 3, Matrix: uniformNoise(t, 2, 0.3)}, true},
		{"noise drift allowed", faults.Event{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.2, DriftRounds: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Faults = &faults.Schedule{Events: []faults.Event{tc.ev}}
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate rejected %s: %v", tc.name, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestFaultCountsDeterminism(t *testing.T) {
	cfg := sim.Config{
		N: 1000, H: 16, Sources1: 10,
		Noise:           uniformNoise(t, 2, 0.1),
		Protocol:        protocol.MajorityRule{},
		Seed:            5,
		Backend:         sim.BackendCounts,
		MaxRounds:       200,
		StabilityWindow: 5,
		TrackHistory:    true,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.KindCorrupt, WindowLo: 5, WindowHi: 20, Fraction: 0.8, Corruption: faults.CorruptRandom},
			{Kind: faults.KindNoiseDrift, Round: 30, Delta: 0.3, DriftRounds: 5},
		}},
	}
	a, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	a.Reset(cfg.Seed)
	resB, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("counts-backend fault replay diverged:\n%+v\n%+v", resA, resB)
	}
	if len(resA.Faults) == 0 {
		t.Fatal("no faults recorded")
	}
}
