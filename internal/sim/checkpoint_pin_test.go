package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// checkpointPins holds the sha256 of the round-10 SetCheckpoint bytes of
// vecCases() configs at seed 7. Long-running services journal these
// bytes and restore them after a restart, so a change that alters them
// breaks every checkpoint written before it. Never re-pin to make this test
// pass: a mismatch means old checkpoints no longer restore.
var checkpointPins = map[string]string{
	"voter aggregate multichunk": "24460bcce56865a50232ba59773f66acbad7fd14f8c6d32b02bc58677ffe8043",
	"majority exact":             "b4007007e248636f8a1a2443161debf33e895f9850b751e3aee422104698bb26",
	"sf aggregate":               "eaf742eb48cc68157d01d61e10106160ca28a2341bae5d813d3d0c435a71bf2e",
	"voter noise faults":         "984dc407fd7eb707ee11164e8a5dbe28d27e34d1428eedbf470d770e168ca34d",
	"majority regular graph":     "65dbc455f7bbc5ae9e6484d8e3fa9b70003d72b7c9c329460acaaeea40adc860",
	"ssf k4 aggregate":           "f56428dd343b8d87518d1a8336a4f1a3507524342a9acf111e8e2305a0449f48",
	"trustbit regular graph":     "ad09bbf62c2d90ce4c9d015dc7b95c902b3b83784fabcc8af8c0e4385b481d16",
	"voter crash churn corrupt":  "70af1e76a527c82fa359ea62252f077350c0ea46ef09d5745c3ada335a5c7d5b",
	"majority churn":             "b8ed8eb68de3430cc6c0e0cda16e5fbad81486ce67549ccfb9006a0d60c0980d",
	"sf alternating churn":       "57c1973c0b96ad037205df324489ed3793c04c8e3ac6aaa14f6c16c64ddace80",
	"ssf k4 churn":               "2224d7fb080a38e11c1e31f500b2ead44d3f2251397746d772b43d9f33a52211",
	"trustbit ring churn":        "517f838c6eded3fc54e37a50aade07aaf71ec2c0d705df3ca67a904a44b484d6",
}

// TestCheckpointBytesPinned runs each pinned config to its first checkpoint
// and compares the snapshot's digest with the pin.
func TestCheckpointBytesPinned(t *testing.T) {
	cases := make(map[string]vecCase)
	for _, tc := range vecCases() {
		cases[tc.name] = tc
	}
	for name, want := range checkpointPins {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("%s: pinned config missing from vecCases()", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := tc.cfg(t, 7)
			cfg.Workers = 2
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var got string
			r.SetCheckpoint(10, func(round int, snap []byte) {
				if round == 10 {
					sum := sha256.Sum256(snap)
					got = hex.EncodeToString(sum[:])
				}
			})
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round-10 checkpoint sha256 = %s, pinned %s", got, want)
			}
		})
	}
}

// storedCheckpointConfigs are the configs of the round-5 checkpoints in
// testdata/checkpoints/<name>.snap, each taken at seed 11 by an earlier
// build whose Snapshot recorded BackendAuto as the label it resolved to by
// h (exact for h <= 8 or a topology, aggregate above). The files are never
// regenerated: they stand for checkpoints that journals already hold.
func storedCheckpointConfigs(t *testing.T) map[string]sim.Config {
	ring, err := graph.Ring(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sim.Config{
		"auto-voter-h4": {
			N: 2000, H: 4, Sources1: 20, Sources0: 5,
			Noise:           uniformNoise(t, 2, 0.15),
			Protocol:        protocol.Voter{},
			Backend:         sim.BackendAuto,
			MaxRounds:       30,
			StabilityWindow: 30,
		},
		"auto-sf-h16": {
			N: 80, H: 16, Sources1: 2, Sources0: 1,
			Noise:     uniformNoise(t, 2, 0.2),
			Protocol:  protocol.NewSF(),
			Backend:   sim.BackendAuto,
			MaxRounds: 5000,
		},
		"auto-majority-ring": {
			N: 1000, H: 4, Sources1: 30, Sources0: 10,
			Noise:           uniformNoise(t, 2, 0.1),
			Protocol:        protocol.MajorityRule{},
			Topology:        ring,
			Backend:         sim.BackendAuto,
			MaxRounds:       30,
			StabilityWindow: 30,
		},
		"exact-ssf-k4": {
			N: 100, H: 6, Sources1: 8, Sources0: 2,
			Noise:           uniformNoise(t, 4, 0.1),
			Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(24)),
			Backend:         sim.BackendExact,
			Corruption:      sim.CorruptRandom,
			MaxRounds:       40,
			StabilityWindow: 40,
		},
		"aggregate-trustbit": {
			N: 1000, H: 6, Sources1: 20, Sources0: 5,
			Noise:           uniformNoise(t, 4, 0.08),
			Protocol:        protocol.TrustBit{},
			Backend:         sim.BackendAggregate,
			MaxRounds:       30,
			StabilityWindow: 30,
			Faults: &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindChurn, Round: 3, Fraction: 0.2, Corruption: faults.CorruptWrongConsensus},
				{Kind: faults.KindCorrupt, Round: 8, Fraction: 0.1, Corruption: faults.CorruptRandom},
			}},
		},
		"counts-majority": {
			N: 100000, H: 8, Sources1: 300, Sources0: 100,
			Noise:           uniformNoise(t, 2, 0.1),
			Protocol:        protocol.MajorityRule{},
			Backend:         sim.BackendCounts,
			MaxRounds:       30,
			StabilityWindow: 30,
		},
	}
}

// TestCheckpointsFromParentRestore restores each stored checkpoint into a
// runner built from its config and runs it out: the result, the history
// after round 5, and the final state must equal an uninterrupted run's.
func TestCheckpointsFromParentRestore(t *testing.T) {
	const round = 5
	for name, cfg := range storedCheckpointConfigs(t) {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "checkpoints", name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = 11
			cfg.TrackHistory = true
			control, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer control.Close()
			want, err := control.Run()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if err := resumed.Restore(data); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(want.History) < round {
				t.Fatalf("control ran %d rounds, fewer than the checkpoint's %d", len(want.History), round)
			}
			tail := *want
			tail.History = want.History[round:]
			if !reflect.DeepEqual(&tail, got) {
				t.Fatalf("resumed result differs:\nwant %+v\ngot  %+v", &tail, got)
			}
			if !reflect.DeepEqual(control.ClassCounts(), resumed.ClassCounts()) {
				t.Fatalf("class counts differ: %v vs %v", control.ClassCounts(), resumed.ClassCounts())
			}
			if cfg.Backend != sim.BackendCounts {
				for i := 0; i < cfg.N; i++ {
					d1, o1, _ := control.AgentState(i)
					d2, o2, _ := resumed.AgentState(i)
					w1, _ := control.AgentWeakOpinion(i)
					w2, _ := resumed.AgentWeakOpinion(i)
					if d1 != d2 || o1 != o2 || w1 != w2 {
						t.Fatalf("agent %d: state (%d, %d, %d), resumed (%d, %d, %d)", i, d1, o1, w1, d2, o2, w2)
					}
				}
			}
			s1 := control.Snapshot()
			s2 := resumed.Snapshot()
			if !bytes.Equal(s1, s2) {
				t.Fatal("final snapshots differ")
			}
		})
	}
}
