package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"noisypull/internal/sim"
)

// checkpointPins holds the sha256 of the round-10 SetCheckpoint bytes of each
// built-in vecCases() config at seed 7. Long-running services journal these
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
