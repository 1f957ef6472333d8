// Fault-injection tests: determinism of fault timelines across Reset reuse,
// worker counts, and backends; exact per-agent semantics of each fault kind
// (via a probe protocol); recovery telemetry; and the counts backend's
// corruption-as-redistribution agreement with the per-agent backends.
package sim_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/protocol"
	"noisypull/internal/rng"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// probeProto instruments the engine's fault hooks: agents count Observe and
// Corrupt invocations and record the per-round count of observed 1-symbols.
// All agents display 0 and hold opinion 0.
type probeProto struct{}

func (probeProto) Alphabet() int { return 2 }
func (probeProto) NewAgent(id int, role sim.Role, env sim.Env) sim.Agent {
	return &probeAgent{}
}

type probeAgent struct {
	observes, corrupts int
	mode               sim.CorruptionMode
	onesByRound        []int
}

func (a *probeAgent) Display() int { return 0 }
func (a *probeAgent) Observe(counts []int, r *rng.Stream) {
	a.observes++
	a.onesByRound = append(a.onesByRound, counts[1])
}
func (a *probeAgent) Opinion() int { return 0 }
func (a *probeAgent) Corrupt(mode sim.CorruptionMode, wrong int, r *rng.Stream) {
	a.corrupts++
	a.mode = mode
}

// probeConfig runs 10 rounds without converging (the probe's opinion is 0,
// the correct opinion is 1), so every scheduled fault fires.
func probeConfig(t *testing.T, sched *faults.Schedule) sim.Config {
	t.Helper()
	return sim.Config{
		N: 40, H: 4, Sources1: 2, Sources0: 1,
		Noise:     uniformNoise(t, 2, 0),
		Protocol:  probeProto{},
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
	agents := make([]*probeAgent, cfg.N)
	for i, a := range r.Agents() {
		agents[i] = a.(*probeAgent)
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

// TestFaultTimelineMatchesAcrossBackends checks that the scheduled part of
// the fault history — fire rounds, event identity, and affected counts — is
// bit-identical between the exact and aggregate backends: fault selection
// draws from a dedicated stream that both backends consume identically.
// (Recovery rounds are observation-driven and hence only distributionally
// equal; TestFaultRecoveryCrossBackendChiSquare covers them.)
func TestFaultTimelineMatchesAcrossBackends(t *testing.T) {
	base := sim.Config{
		N: 80, H: 6, Sources1: 3, Sources0: 1,
		Noise:           uniformNoise(t, 2, 0.1),
		Protocol:        protocol.MajorityRule{},
		Seed:            23,
		MaxRounds:       40,
		StabilityWindow: 40,
		Faults:          fullSchedule(t),
	}
	var timelines [2][]faults.Record
	for bi, backend := range []sim.Backend{sim.BackendExact, sim.BackendAggregate} {
		cfg := base
		cfg.Backend = backend
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		timelines[bi] = res.Faults
	}
	if len(timelines[0]) != len(timelines[1]) {
		t.Fatalf("fault counts differ: %d vs %d", len(timelines[0]), len(timelines[1]))
	}
	for i := range timelines[0] {
		a, b := timelines[0][i], timelines[1][i]
		if a.Round != b.Round || a.Kind != b.Kind || a.Index != b.Index || a.Affected != b.Affected {
			t.Fatalf("fault %d differs across backends: %+v vs %+v", i, a, b)
		}
	}
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
	m, err := ssf.UpdateQuota(env)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StabilityWindow = 2 * ((m + cfg.H - 1) / cfg.H)
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

// TestFaultRecoveryCrossBackendChiSquare is the stochastic half of the
// cross-backend contract: the recovery-time distribution after a mid-run
// random corruption must agree between the exact, aggregate, and counts
// backends. A chi-square homogeneity test over recovery-time bins (with
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
	backends := []sim.Backend{sim.BackendExact, sim.BackendAggregate, sim.BackendCounts}
	const never = math.MaxInt32
	samples := make([][]int, len(backends))
	for bi, backend := range backends {
		cfg := base
		cfg.Backend = backend
		seeds := make([]uint64, trials)
		for i := range seeds {
			seeds[i] = uint64(10_000*bi + i + 1)
		}
		results, err := sim.RunBatch(cfg, seeds, 0)
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

// countableOnly forwards the CountableProtocol interface while hiding any
// CorruptRow method, to exercise the counts backend's rejection of corrupt
// faults on protocols that cannot redistribute them.
type countableOnly struct{ p sim.CountableProtocol }

func (c countableOnly) Alphabet() int { return c.p.Alphabet() }
func (c countableOnly) NewAgent(id int, role sim.Role, env sim.Env) sim.Agent {
	return c.p.NewAgent(id, role, env)
}
func (c countableOnly) NumStates(env sim.Env) int            { return c.p.NumStates(env) }
func (c countableOnly) DisplayOf(env sim.Env, state int) int { return c.p.DisplayOf(env, state) }
func (c countableOnly) OpinionOf(env sim.Env, state int) int { return c.p.OpinionOf(env, state) }
func (c countableOnly) InitialCounts(env sim.Env, init sim.CountsInit, counts []int) {
	c.p.InitialCounts(env, init, counts)
}
func (c countableOnly) TransitionRow(env sim.Env, state int, obs, row []float64) {
	c.p.TransitionRow(env, state, obs, row)
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

	// Corrupt faults need CountableCorruptible, not just CountableProtocol.
	cfg := base
	cfg.Protocol = countableOnly{p: protocol.Voter{}}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 3, Fraction: 0.5, Corruption: faults.CorruptRandom},
	}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a corrupt fault for a non-CountableCorruptible protocol on the counts backend")
	}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.2, DriftRounds: 4},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("noise drift should not require CountableCorruptible: %v", err)
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
