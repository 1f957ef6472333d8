// Equivalence suite for the per-agent engine path (vector.go), on which
// every protocol runs as its struct-of-arrays kernel. What this file
// proves:
//
//  1. every run is bit-identical to itself at any Workers / GOMAXPROCS
//     setting (per-chunk streams + commutative integer merges);
//  2. snapshots resume bit-identically, including under live fault
//     schedules (noise swap/drift, and mid-crash with corruption/churn);
//  3. cross-path restores (kernel, counts backend) fail loudly instead of
//     silently diverging;
//  4. every configuration but the counts backend has a per-agent
//     population, and an environment outside a protocol's domain fails
//     construction with an error;
//  5. AsyncRunner activates the same populations: its round-0 state is
//     Runner's, and Reset replays a fresh async runner.
package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// structFaults is the structural fault palette: mid-run corruption, a crash
// window spanning the snapshot round of the resume test (12 → 22, over
// round 16), and churn.
var structFaults = &faults.Schedule{Events: []faults.Event{
	{Kind: faults.KindCorrupt, Round: 8, Fraction: 0.2, Corruption: faults.CorruptRandom},
	{Kind: faults.KindCrash, Round: 12, Fraction: 0.3, Duration: 10},
	{Kind: faults.KindChurn, Round: 14, Fraction: 0.15, Corruption: faults.CorruptWrongConsensus},
}}

// churnFaults churns non-sources three times before the round-10
// checkpoint: into fresh agents, into randomly corrupted ones, and into
// wrong-consensus ones.
var churnFaults = &faults.Schedule{Events: []faults.Event{
	{Kind: faults.KindChurn, Round: 4, Fraction: 0.2},
	{Kind: faults.KindChurn, Round: 7, Fraction: 0.15, Corruption: faults.CorruptRandom},
	{Kind: faults.KindChurn, Round: 9, Fraction: 0.1, Corruption: faults.CorruptWrongConsensus},
}}

// vecCase is a per-agent path configuration.
type vecCase struct {
	name string
	cfg  func(t *testing.T, seed uint64) sim.Config
}

func vecCases() []vecCase {
	return []vecCase{
		{
			// n > VecChunkSize so the run spans multiple chunks and worker
			// striding is non-trivial.
			name: "voter aggregate multichunk",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 10000, H: 6, Sources1: 30, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.15),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       40,
					StabilityWindow: 3,
				}
			},
		},
		{
			name: "majority exact",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 25, Sources0: 5,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 4,
					Corruption:      sim.CorruptWrongConsensus,
				}
			},
		},
		{
			name: "sf aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 300, H: 16, Sources1: 2, Sources0: 1,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  protocol.NewSF(),
					Seed:      seed,
					Backend:   sim.BackendAggregate,
					MaxRounds: 5000,
				}
			},
		},
		{
			// Noise swap + drift repoint the observation law mid-run; the
			// schedule must not knock the run off the vec path.
			name: "voter noise faults",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       50,
					StabilityWindow: 3,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindNoiseSwap, Round: 6, Matrix: mustUniform(0.3)},
						{Kind: faults.KindNoiseDrift, Round: 14, Delta: 0.12, DriftRounds: 8},
					}},
				}
			},
		},
		{
			// Graph topology: per-agent neighborhood laws over the CSR
			// adjacency, multi-chunk so the display vector is published by
			// several workers.
			name: "majority regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(10000, 8, 424242)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 10000, H: 6, Sources1: 80, Sources0: 20,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 20,
				}
			},
		},
		{
			// k-ary alphabet on the complete graph: cached multinomial
			// observation batching, multi-chunk.
			name: "ssf k4 aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       200,
					StabilityWindow: 12,
					Corruption:      sim.CorruptRandom,
				}
			},
		},
		{
			// k-ary alphabet on a graph: neighborhood tallies feeding
			// per-agent multinomials.
			name: "trustbit regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(5000, 10, 171717)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 6, Sources1: 100, Sources0: 20,
					Noise:           uniformNoise(t, 4, 0.08),
					Protocol:        protocol.TrustBit{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 25,
				}
			},
		},
		{
			// SSF on a graph: the k-ary kernel publishes its displays for
			// per-agent neighborhood laws, multi-chunk.
			name: "ssf ring",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.Ring(5000, 3)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 40,
				}
			},
		},
		{
			// The structural fault palette on the SoA population.
			name: "voter crash churn corrupt",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.12),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 10,
					Faults:          structFaults,
				}
			},
		},
		{
			// Churn on each remaining kernel, multi-chunk, run for a fixed
			// 20 rounds (the stability window equals the budget).
			name: "majority churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 6, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
		{
			name: "sf alternating churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 16, Sources1: 60, Sources0: 15,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  protocol.NewSFAlternating(),
					Seed:      seed,
					Backend:   sim.BackendExact,
					MaxRounds: 20,
					Faults:    churnFaults,
				}
			},
		},
		{
			name: "ssf k4 churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
		{
			name: "trustbit ring churn",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.Ring(5000, 3)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 6, Sources1: 100, Sources0: 20,
					Noise:           uniformNoise(t, 4, 0.08),
					Protocol:        protocol.TrustBit{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       20,
					StabilityWindow: 20,
					Faults:          churnFaults,
				}
			},
		},
	}
}

// TestVecBitIdenticalAcrossParallelism: the same seed must produce the same
// trajectory — byte-for-byte identical final engine state — at every Workers
// and GOMAXPROCS setting. This is the determinism contract of the per-chunk
// stream scheme: chunk c always draws from DeriveSeed(seed, vecStreamID+c)
// regardless of which worker executes it, and cross-chunk merges are
// commutative integer sums.
func TestVecBitIdenticalAcrossParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			var refRes *sim.Result
			var refSnap []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 8} {
					cfg := tc.cfg(t, 42)
					cfg.Workers = workers
					r, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					snap := r.Snapshot()
					r.Close()
					if refSnap == nil {
						refRes, refSnap = res, snap
						continue
					}
					label := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)
					sameResult(t, refRes, res, label)
					if !bytes.Equal(refSnap, snap) {
						t.Fatalf("%s: final engine state differs from the single-threaded reference", label)
					}
				}
			}
		})
	}
}

// TestVecSnapshotResumeDeterminism: a run interrupted mid-flight — mid-drift
// with a swapped noise matrix, or mid-crash with live fault telemetry — and
// resumed from its snapshot in a fresh runner must finish with the identical
// result and identical final engine state. The chunk stream states and the
// population payload round-trip through the snapPopVec record.
func TestVecSnapshotResumeDeterminism(t *testing.T) {
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t, 77)
			cfg.Workers = 2
			const snapRound = 16
			control, controlFinal := runWithFinalSnap(t, cfg)
			if control.Rounds <= snapRound {
				t.Fatalf("control finished at round %d, before snapshot round %d", control.Rounds, snapRound)
			}

			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var snap []byte
			r.SetOnRound(func(round, correct int) {
				if round == snapRound {
					snap = r.Snapshot()
				}
			})
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("snapshot hook never fired")
			}

			r2, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			resumed, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, resumed, "resumed vec result")
			resumedFinal := r2.Snapshot()
			if !bytes.Equal(controlFinal, resumedFinal) {
				t.Fatal("final engine state differs between uninterrupted and resumed vec run")
			}
		})
	}
}

// TestVecCrossPathRestoreRejected: the counts backend keeps no per-agent
// state, so restoring a snapshot between it and a kernel would silently
// change the trajectory. Both directions must fail.
func TestVecCrossPathRestoreRejected(t *testing.T) {
	kernel := vecCases()[0].cfg(t, 5)
	counts := kernel
	counts.Backend = sim.BackendCounts
	cfgs := map[string]sim.Config{"kernel": kernel, "counts": counts}
	snaps := make(map[string][]byte)
	for name, cfg := range cfgs {
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		r.Close()
		snaps[name] = snap
	}
	for from, snap := range snaps {
		for into, cfg := range cfgs {
			if from == into {
				continue
			}
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Restore(snap); err == nil {
				t.Errorf("%s snapshot restored into a %s runner", from, into)
			}
			r.Close()
		}
	}
}

// TestVecEligibility pins which population each configuration gets: every
// built-in protocol runs its kernel — graph topologies, alphabets > 2, and
// the full fault palette included — and the counts backend has no
// per-agent population. An environment outside a protocol's domain is an
// error from New, not a panic.
func TestVecEligibility(t *testing.T) {
	base := func() sim.Config {
		return sim.Config{
			N: 200, H: 4, Sources1: 3, Sources0: 1,
			Noise:     uniformNoise(t, 2, 0.1),
			Protocol:  protocol.Voter{},
			Seed:      1,
			MaxRounds: 10,
		}
	}
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	crashChurn := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 3, Fraction: 0.2, Duration: 3},
		{Kind: faults.KindChurn, Round: 5, Fraction: 0.1},
	}}
	const (
		kernel = iota
		counts
	)
	cases := []struct {
		name string
		mut  func(c *sim.Config)
		want int
	}{
		{"voter auto(exact h<=8)", func(c *sim.Config) {}, kernel},
		{"voter aggregate", func(c *sim.Config) { c.Backend = sim.BackendAggregate }, kernel},
		{"majority exact", func(c *sim.Config) { c.Protocol = protocol.MajorityRule{} }, kernel},
		{"sf aggregate", func(c *sim.Config) {
			c.Protocol = protocol.NewSF()
			c.Backend = sim.BackendAggregate
			c.H = 16
			c.MaxRounds = 5000
		}, kernel},
		{"noise-only faults", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.1, DriftRounds: 2},
			}}
		}, kernel},
		{"topology", func(c *sim.Config) { c.Topology = ring }, kernel},
		{"corrupt fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCorrupt, Round: 3, Fraction: 0.1, Corruption: faults.CorruptRandom},
			}}
		}, kernel},
		{"crash fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCrash, Round: 3, Fraction: 0.1, Duration: 2},
			}}
		}, kernel},
		{"churn fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindChurn, Round: 3, Fraction: 0.1},
			}}
		}, kernel},
		{"alphabet 4 trustbit", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.H = 40
			c.Backend = sim.BackendAggregate
		}, kernel},
		{"alphabet 4 ssf exact", func(c *sim.Config) {
			c.Protocol = protocol.NewSSF(protocol.WithSSFUpdateQuota(32))
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Backend = sim.BackendExact
			c.MaxRounds = 30
		}, kernel},
		{"alphabet 4 on topology", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Topology = ring
		}, kernel},
		{"crash+churn on graph", func(c *sim.Config) {
			c.Topology = ring
			c.Faults = crashChurn
		}, kernel},
		{"counts backend", func(c *sim.Config) { c.Backend = sim.BackendCounts }, counts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, _, err := r.AgentState(0); (err != nil) != (tc.want == counts) {
				t.Fatalf("AgentState error = %v; only the counts backend has no per-agent population", err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// An environment outside a protocol's domain fails New with an error
	// naming the violated limit.
	for _, tc := range []struct {
		name, errHas string
		mut          func(c *sim.Config)
	}{
		{"ssf quota beyond kernel counters", "1073741824", func(c *sim.Config) {
			c.Protocol = protocol.NewSSF(protocol.WithSSFUpdateQuota(1 << 31))
			c.Noise = uniformNoise(t, 4, 0.1)
		}},
		{"sf at delta 0.5", "outside [0, 0.5)", func(c *sim.Config) {
			c.Protocol = protocol.NewSF()
			c.Noise = uniformNoise(t, 2, 0.5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := sim.New(cfg); err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("New error = %v, want one naming %q", err, tc.errHas)
			}
		})
	}
}

// TestRoundGuideSelection pins which runs build the guide table of the
// round's shared binary sampler: binary complete-graph runs of at least
// 64 agents whose population draws K1. The voter kernel reads only the
// marginal q₁, and graphs, k-ary alphabets and the counts backend have no
// shared binary sampler.
func TestRoundGuideSelection(t *testing.T) {
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(c *sim.Config)
		want bool
	}{
		{"majority", func(c *sim.Config) {}, true},
		{"sf", func(c *sim.Config) { c.Protocol, c.H, c.MaxRounds = protocol.NewSF(), 16, 5000 }, true},
		{"voter", func(c *sim.Config) { c.Protocol = protocol.Voter{} }, false},
		{"63 agents", func(c *sim.Config) { c.N = 63 }, false},
		{"topology", func(c *sim.Config) { c.Topology = ring }, false},
		{"counts", func(c *sim.Config) { c.Backend = sim.BackendCounts }, false},
		{"alphabet 4", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
		}, false},
	}
	for _, tc := range cases {
		cfg := sim.Config{
			N: 200, H: 4, Sources1: 3, Sources0: 1,
			Noise:     uniformNoise(t, 2, 0.1),
			Protocol:  protocol.MajorityRule{},
			Seed:      1,
			MaxRounds: 10,
		}
		tc.mut(&cfg)
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sim.BuildsRoundGuide(r); got != tc.want {
			t.Errorf("%s: builds guide %v, want %v", tc.name, got, tc.want)
		}
		r.Close()
	}
}

// TestRoundsAllocateNothing: a run's allocations do not grow with its
// round count, so the per-round law builds (the binary guide table, the
// k-ary joint alias table, the regular-graph memo's guides) reuse their
// storage.
func TestRoundsAllocateNothing(t *testing.T) {
	regular, err := graph.RandomRegular(512, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(c *sim.Config)
	}{
		{"majority", func(c *sim.Config) {}},
		{"sf", func(c *sim.Config) { c.Protocol = protocol.NewSF() }},
		{"trustbit alphabet 4", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
		}},
		{"majority on a regular graph", func(c *sim.Config) { c.Topology = regular }},
	}
	for _, tc := range cases {
		allocs := func(rounds int) float64 {
			cfg := sim.Config{
				N: 512, H: 8, Sources1: 8,
				Noise:           uniformNoise(t, 2, 0.1),
				Protocol:        protocol.MajorityRule{},
				Seed:            1,
				MaxRounds:       rounds,
				StabilityWindow: rounds,
				Workers:         1,
			}
			tc.mut(&cfg)
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			defer r.Close()
			seed := uint64(1)
			return testing.AllocsPerRun(5, func() {
				seed++
				r.Reset(seed)
				if res, err := r.Run(); err != nil || res.Rounds != rounds {
					t.Fatalf("%s: %d rounds, %v; want %d", tc.name, res.Rounds, err, rounds)
				}
			})
		}
		if short, long := allocs(4), allocs(24); long != short {
			t.Errorf("%s: %v allocations over 4 rounds, %v over 24", tc.name, short, long)
		}
	}
}

// TestVecAgentWeakOpinion: the weak-opinion accessor must work on every
// kernel whose protocol forms one — including the k-ary SSF population and
// graph-topology runs — and report ok = false (not a silent zero with
// ok = true) for protocols without a weak opinion.
func TestVecAgentWeakOpinion(t *testing.T) {
	ring, err := graph.Ring(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     sim.Config
		hasWeak bool
	}{
		{
			name: "ssf k4 complete",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.NewSSF(protocol.WithSSFUpdateQuota(32)),
				Seed:      11,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: true,
		},
		{
			name: "sf ring graph",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 3, Sources0: 1,
				Noise:     uniformNoise(t, 2, 0.15),
				Protocol:  protocol.NewSF(),
				Topology:  ring,
				Seed:      12,
				Backend:   sim.BackendExact,
				MaxRounds: 400,
			},
			hasWeak: true,
		},
		{
			name: "trustbit k4 complete",
			cfg: sim.Config{
				N: 300, H: 6, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.TrustBit{},
				Seed:      13,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := sim.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, tc.cfg.N / 2, tc.cfg.N - 1} {
				weak, ok := r.AgentWeakOpinion(i)
				if ok != tc.hasWeak {
					t.Fatalf("agent %d: AgentWeakOpinion ok = %v, want %v", i, ok, tc.hasWeak)
				}
				if ok && weak != 0 && weak != 1 {
					t.Fatalf("agent %d: weak opinion %d outside {0,1}", i, weak)
				}
			}
		})
	}
}

// asyncSSFConfig is an SSF run on its k = 4 kernel from a random round-0
// corruption.
func asyncSSFConfig(t *testing.T) sim.Config {
	t.Helper()
	return sim.Config{
		N: 150, H: 32, Sources1: 1,
		Noise:           uniformNoise(t, 4, 0.1),
		Protocol:        protocol.NewSSF(),
		Corruption:      sim.CorruptRandom,
		MaxRounds:       40,
		StabilityWindow: 1,
		TrackHistory:    true,
		Workers:         1,
	}
}

// TestAsyncRoundZeroMatchesSync: NewAsync builds its population through
// the synchronous engine, so before any activation its state, random
// corruption included, is byte-for-byte Runner's under the same seed.
func TestAsyncRoundZeroMatchesSync(t *testing.T) {
	cfg := asyncSSFConfig(t)
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sim.AsyncEngine(a).Snapshot(), r.Snapshot()) {
		t.Fatal("async round-0 state differs from the synchronous runner's")
	}
}

// TestAsyncResetMatchesFresh: Reset(s) followed by Run replays NewAsync at
// seed s exactly, for SSF and for the convergent test probe.
func TestAsyncResetMatchesFresh(t *testing.T) {
	copySource := sim.Config{
		N: 80, H: 8, Sources1: 4, Sources0: 1,
		Noise:           uniformNoise(t, 2, 0.05),
		Protocol:        &sim.Probe{Symbols: 2, Sticky: true},
		StabilityWindow: 3,
		MaxRounds:       200,
		TrackHistory:    true,
	}
	for _, cfg := range []sim.Config{asyncSSFConfig(t), copySource} {
		r, err := sim.NewAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{5, 9} {
			r.Reset(seed)
			got, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			fresh, err := sim.NewAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T seed %d: Reset run %+v, fresh run %+v", cfg.Protocol, seed, got, want)
			}
		}
	}
}
