// Golden-trace regression suite for the round engine.
//
// testdata/golden_vec.json pins full trajectories (result fields, round
// history, and a hash of final per-agent state) of the built-in protocols'
// struct-of-arrays kernels, so changes to the kernels or the chunked stream
// scheme cannot silently change results. Whether the engine draws from the
// right law at all is checked against the model itself by the exact-law
// oracle (oracle_test.go).
//
// Regenerate with:
//
//	go test ./internal/sim -run TestGolden -update
//
// Never regenerate it to paper over an engine diff: recorded seeds and
// published experiment tables depend on these trajectories.
package sim_test

import (
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenTrace is the serialized outcome of one deterministic run.
type goldenTrace struct {
	Rounds          int    `json:"rounds"`
	Converged       bool   `json:"converged"`
	FirstAllCorrect int    `json:"first_all_correct"`
	FinalCorrect    int    `json:"final_correct"`
	History         []int  `json:"history"`
	StateHash       uint64 `json:"state_hash"`
}

type goldenCase struct {
	name string
	cfg  sim.Config
}

func goldenNoise(t *testing.T, d int, delta float64) *noise.Matrix {
	t.Helper()
	m, err := noise.Uniform(d, delta)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenCases is the fixed config matrix pinned by the golden file.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	swap, err := noise.Uniform(2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	noiseSched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindNoiseSwap, Round: 5, Matrix: swap},
		{Kind: faults.KindNoiseDrift, Round: 12, Delta: 0.1, DriftRounds: 6},
	}}
	base := func(proto sim.Protocol, backend sim.Backend, seed uint64) sim.Config {
		return sim.Config{
			N:               200,
			H:               4,
			Sources1:        3,
			Sources0:        1,
			Noise:           goldenNoise(t, 2, 0.15),
			Protocol:        proto,
			Seed:            seed,
			Backend:         backend,
			MaxRounds:       60,
			StabilityWindow: 4,
			TrackHistory:    true,
			Workers:         1,
		}
	}
	cases := []goldenCase{
		{name: "voter-exact", cfg: base(protocol.Voter{}, sim.BackendExact, 101)},
		{name: "voter-aggregate", cfg: base(protocol.Voter{}, sim.BackendAggregate, 101)},
		{name: "voter-exact-seed2", cfg: base(protocol.Voter{}, sim.BackendExact, 777)},
	}

	vr := base(protocol.Voter{}, sim.BackendExact, 202)
	vr.Corruption = sim.CorruptRandom
	cases = append(cases, goldenCase{name: "voter-exact-corrupt-random", cfg: vr})

	vf := base(protocol.Voter{}, sim.BackendAggregate, 303)
	vf.Faults = noiseSched
	cases = append(cases, goldenCase{name: "voter-aggregate-noisefaults", cfg: vf})

	mj := base(protocol.MajorityRule{}, sim.BackendExact, 404)
	mj.H = 8
	cases = append(cases, goldenCase{name: "majority-exact", cfg: mj})

	mw := base(protocol.MajorityRule{}, sim.BackendAggregate, 505)
	mw.H = 8
	mw.Corruption = sim.CorruptWrongConsensus
	cases = append(cases, goldenCase{name: "majority-aggregate-corrupt-wrong", cfg: mw})

	sfBase := func(proto sim.Protocol, backend sim.Backend, seed uint64) sim.Config {
		return sim.Config{
			N:            150,
			H:            16,
			Sources1:     2,
			Sources0:     1,
			Noise:        goldenNoise(t, 2, 0.2),
			Protocol:     proto,
			Seed:         seed,
			Backend:      backend,
			MaxRounds:    5000,
			TrackHistory: true,
			Workers:      1,
		}
	}
	cases = append(cases,
		goldenCase{name: "sf-exact", cfg: sfBase(protocol.NewSF(), sim.BackendExact, 606)},
		goldenCase{name: "sf-aggregate", cfg: sfBase(protocol.NewSF(), sim.BackendAggregate, 606)},
		goldenCase{name: "sf-alt-exact", cfg: sfBase(protocol.NewSFAlternating(), sim.BackendExact, 707)},
	)

	sfc := sfBase(protocol.NewSF(), sim.BackendExact, 808)
	sfc.Corruption = sim.CorruptWrongConsensus
	cases = append(cases, goldenCase{name: "sf-exact-corrupt-wrong", cfg: sfc})

	// d=4 cascade: vectorized since the k-ary multinomial kernels landed.
	tb := sim.Config{
		N:            150,
		H:            4,
		Sources1:     5,
		Sources0:     1,
		Noise:        goldenNoise(t, 4, 0.1),
		Protocol:     protocol.TrustBit{},
		Seed:         909,
		Backend:      sim.BackendExact,
		MaxRounds:    40,
		TrackHistory: true,
		Workers:      1,
	}
	cases = append(cases, goldenCase{name: "trustbit-exact", cfg: tb})

	ssf := sim.Config{
		N:               120,
		H:               6,
		Sources1:        4,
		Sources0:        1,
		Noise:           goldenNoise(t, 4, 0.12),
		Protocol:        protocol.NewSSF(),
		Seed:            111,
		Backend:         sim.BackendExact,
		MaxRounds:       300,
		StabilityWindow: 1, // the window this trace was recorded with
		TrackHistory:    true,
		Workers:         1,
	}
	cases = append(cases, goldenCase{name: "ssf-exact", cfg: ssf})

	// Graph topology: per-neighborhood observation laws.
	ring, err := graph.Ring(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	vg := base(protocol.Voter{}, sim.BackendExact, 1001)
	vg.Topology = ring
	cases = append(cases, goldenCase{name: "voter-ring-exact", cfg: vg})

	tg := sim.Config{
		N:            200,
		H:            4,
		Sources1:     6,
		Sources0:     2,
		Noise:        goldenNoise(t, 4, 0.1),
		Protocol:     protocol.TrustBit{},
		Topology:     ring,
		Seed:         1102,
		Backend:      sim.BackendExact,
		MaxRounds:    40,
		TrackHistory: true,
		Workers:      1,
	}
	cases = append(cases, goldenCase{name: "trustbit-ring-exact", cfg: tg})

	// Structural faults (corrupt + crash + churn).
	structSched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCorrupt, Round: 6, Fraction: 0.25, Corruption: faults.CorruptRandom},
		{Kind: faults.KindCrash, Round: 10, Fraction: 0.3, Duration: 8},
		{Kind: faults.KindChurn, Round: 13, Fraction: 0.2, Corruption: faults.CorruptWrongConsensus},
	}}
	vsf := base(protocol.Voter{}, sim.BackendExact, 1203)
	vsf.Faults = structSched
	vsf.StabilityWindow = 8
	cases = append(cases, goldenCase{name: "voter-exact-structfaults", cfg: vsf})
	return cases
}

// runGolden executes one case and serializes the trajectory. The final
// state hash folds in every agent's display symbol and opinion, so any
// divergence in per-agent state — not just the aggregate history — flips it.
func runGolden(t *testing.T, cfg sim.Config) goldenTrace {
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
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for i := 0; i < cfg.N; i++ {
		d, o, err := r.AgentState(i)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(d))
		put(uint64(o))
	}
	return goldenTrace{
		Rounds:          res.Rounds,
		Converged:       res.Converged,
		FirstAllCorrect: res.FirstAllCorrect,
		FinalCorrect:    res.FinalCorrect,
		History:         res.History,
		StateHash:       h.Sum64(),
	}
}

func goldenCompare(t *testing.T, name string, got, want goldenTrace) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged ||
		got.FirstAllCorrect != want.FirstAllCorrect || got.FinalCorrect != want.FinalCorrect {
		t.Errorf("%s: result diverged from golden:\n got %+v\nwant %+v", name, got, want)
		return
	}
	if len(got.History) != len(want.History) {
		t.Errorf("%s: history length %d, golden %d", name, len(got.History), len(want.History))
		return
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Errorf("%s: round %d history %d, golden %d", name, i+1, got.History[i], want.History[i])
			return
		}
	}
	if got.StateHash != want.StateHash {
		t.Errorf("%s: final state hash %#x, golden %#x", name, got.StateHash, want.StateHash)
	}
}

func goldenFile(t *testing.T, path string, traces map[string]goldenTrace, update bool) map[string]goldenTrace {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return traces
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := make(map[string]goldenTrace)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenVec pins the built-in kernels against their committed
// trajectories.
func TestGoldenVec(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]goldenTrace, len(cases))
	for _, c := range cases {
		got[c.name] = runGolden(t, c.cfg)
	}
	path := filepath.Join("testdata", "golden_vec.json")
	want := goldenFile(t, path, got, *updateGolden)
	if *updateGolden {
		return
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from golden file", c.name)
			continue
		}
		goldenCompare(t, c.name, got[c.name], w)
	}
}

// TestGoldenVecMatchesScalarShape sanity-checks every golden case on the
// things no trajectory may violate: a positive round count and a
// correct-opinion count within [0, N]. (Agreement of each kernel with the
// exact law is TestSyncChainOracle's job.)
func TestGoldenVecMatchesScalarShape(t *testing.T) {
	for _, c := range goldenCases(t) {
		tr := runGolden(t, c.cfg)
		if tr.FinalCorrect < 0 || tr.FinalCorrect > c.cfg.N {
			t.Errorf("%s: FinalCorrect %d out of range", c.name, tr.FinalCorrect)
		}
		if tr.Rounds <= 0 {
			t.Errorf("%s: non-positive rounds %d", c.name, tr.Rounds)
		}
	}
}
