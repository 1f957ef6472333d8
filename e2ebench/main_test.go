package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"noisypull/internal/chaos"
)

// tinyOptions shrinks a workload to test scale.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	o := defaultOptions()
	o.Workload = workload
	o.Seed = 7
	o.Seconds = 1
	o.Trace = trace
	o.Scratch = t.TempDir()
	o.EngineN = 20_000
	o.SetupReps = 1
	return o
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	toMap := func(ds []def) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return toMap(b.EndToEnd), toMap(b.PerLayer)
}

// runTiny runs o and parses the result line it prints last.
func runTiny(t *testing.T, o options) resultLine {
	t.Helper()
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, o, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestTinyRunsPrintEveryDeclaredMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"engine-grid", "simd-stream", "fleet-quorum"} {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			o := tinyOptions(t, w, trace)
			t.Run(w+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				res := runTiny(t, o)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			})
		}
	}
}

// TestLyingWorkerRaisesErrorRate shows the output check catches wrong
// results: without a quorum the coordinator admits a flip liar's results,
// and the benchmark must count them as failed trials.
func TestLyingWorkerRaisesErrorRate(t *testing.T) {
	o := tinyOptions(t, "fleet-quorum", false)
	o.Seconds = 2
	o.Quorum = 1
	liar := chaos.NewLiar(&chaos.LieSpec{Seed: 1, Flip: 1})
	o.Lie = liar.Apply
	res := runTiny(t, o)
	if liar.Lied() == 0 {
		t.Fatal("the lying worker never delivered a lease")
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("error_rate is 0 with a lying worker and no quorum: attempted=%d failed=%d", res.Attempted, res.Failed)
	}
}
