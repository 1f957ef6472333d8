package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"noisypull/internal/bench"
)

func TestListMatchesFilter(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-list", "-filter", "RunBatch"}, &sb); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(sb.String())
	want := []string{"RunBatch", "RunBatchSequentialBaseline"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("list = %v, want %v", got, want)
	}
}

func TestBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-filter", "["}, &sb); err == nil {
		t.Fatal("bad regexp accepted")
	}
	if err := run(context.Background(), []string{"-filter", "NoSuchCase"}, &sb); err == nil {
		t.Fatal("empty selection accepted")
	}
	if err := run(context.Background(), []string{"-baseline", "/does/not/exist.json", "-filter", "ReduceNoise"}, &sb); err == nil {
		t.Fatal("missing baseline accepted")
	}
	for _, bad := range []string{"0", "-2", "x", "1,,4", "1,0"} {
		if err := run(context.Background(), []string{"-cpu", bad, "-filter", "ReduceNoise"}, &sb); err == nil {
			t.Fatalf("bad -cpu %q accepted", bad)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	got, err := parseCPUList("8, 1,4,8")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parseCPUList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseCPUList = %v, want %v", got, want)
		}
	}
	if def, err := parseCPUList(""); err != nil || len(def) != 1 || def[0] != 0 {
		t.Fatalf("empty list = %v, %v; want [0]", def, err)
	}
}

// TestCPUSweep runs one cheap case under -cpu 1,2 and checks that each
// parallelism yields its own record, that efficiency is attached relative to
// the smallest swept value, and that baselines match on name@cpu keys.
func TestCPUSweep(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	baseFile := File{
		Date: "2000-01-01",
		Benchmarks: []Record{
			{Name: "ReduceNoise", CPU: 1, NsPerOp: 1e12},
			{Name: "ReduceNoise", CPU: 2, NsPerOp: 2e12},
		},
	}
	data, err := json.Marshal(baseFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "out.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{
		"-filter", "^ReduceNoise$",
		"-cpu", "1,2",
		"-out", outPath,
		"-baseline", basePath,
	}, &sb); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("want 2 records, got %+v", f.Benchmarks)
	}
	for i, wantCPU := range []int{1, 2} {
		rec := f.Benchmarks[i]
		if rec.Name != "ReduceNoise" || rec.CPU != wantCPU {
			t.Fatalf("record %d = %+v, want ReduceNoise@%d", i, rec, wantCPU)
		}
		if rec.NsPerOp <= 0 {
			t.Fatalf("implausible measurement: %+v", rec)
		}
		eff, ok := rec.Extra["parallel_efficiency"]
		if !ok || eff <= 0 {
			t.Fatalf("record %d missing parallel_efficiency: %+v", i, rec)
		}
		if rec.Baseline == nil || rec.Baseline.CPU != wantCPU {
			t.Fatalf("record %d baseline not matched per cpu: %+v", i, rec.Baseline)
		}
		if rec.Speedup <= 0 {
			t.Fatalf("record %d speedup not computed: %+v", i, rec)
		}
	}
	if f.Benchmarks[0].Extra["parallel_efficiency"] != 1 {
		t.Fatalf("anchor efficiency = %v, want 1", f.Benchmarks[0].Extra["parallel_efficiency"])
	}
}

// writeBaseline marshals a synthetic baseline file into dir and returns its
// path.
func writeBaseline(t *testing.T, dir string, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-gate", "-filter", "^ReduceNoise$"}, &sb); err == nil {
		t.Fatal("-gate without -baseline accepted")
	}
	base := writeBaseline(t, t.TempDir(), File{Date: "2000-01-01",
		Benchmarks: []Record{{Name: "ReduceNoise", NsPerOp: 1e12, AllocsPerOp: 1 << 40}}})
	for _, bad := range [][]string{
		{"-gate", "-baseline", base, "-gate-ns", "0", "-filter", "^ReduceNoise$"},
		{"-gate", "-baseline", base, "-gate-allocs", "-1", "-filter", "^ReduceNoise$"},
	} {
		if err := run(context.Background(), bad, &sb); err == nil {
			t.Fatalf("non-positive tolerance accepted: %v", bad)
		}
	}
}

// TestGatePasses gates the cheapest real case against an enormous baseline:
// the gate must pass, print the delta table, and write no output file.
func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, File{Date: "2000-01-01",
		Benchmarks: []Record{{Name: "ReduceNoise", NsPerOp: 1e12, AllocsPerOp: 1 << 40}}})

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	var sb strings.Builder
	if err := run(context.Background(), []string{
		"-gate", "-baseline", base, "-filter", "^ReduceNoise$",
	}, &sb); err != nil {
		t.Fatalf("gate failed against huge baseline: %v\n%s", err, sb.String())
	}
	got := sb.String()
	if !strings.Contains(got, "perf gate passed") || !strings.Contains(got, "ReduceNoise") {
		t.Fatalf("gate report missing: %s", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "BENCH_") {
			t.Fatalf("gate mode wrote %s without -out", e.Name())
		}
	}
}

// TestGateDetectsRegression gates against a baseline with impossibly small
// numbers, so the fresh run must exceed both tolerances and fail.
func TestGateDetectsRegression(t *testing.T) {
	base := writeBaseline(t, t.TempDir(), File{Date: "2000-01-01",
		Benchmarks: []Record{{Name: "ReduceNoise", NsPerOp: 0.001, AllocsPerOp: 1}}})
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-gate", "-baseline", base, "-filter", "^ReduceNoise$",
	}, &sb)
	if err == nil {
		t.Fatalf("gate passed against tiny baseline:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "regression") || !strings.Contains(err.Error(), "ReduceNoise") {
		t.Fatalf("gate error does not name the regression: %v", err)
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("delta table missing REGRESSION status: %s", sb.String())
	}
}

// TestGateNewCaseNotGated checks that a case absent from the baseline is
// reported as new and does not fail the gate.
func TestGateNewCaseNotGated(t *testing.T) {
	base := writeBaseline(t, t.TempDir(), File{Date: "2000-01-01",
		Benchmarks: []Record{{Name: "SomethingElse", NsPerOp: 0.001, AllocsPerOp: 1}}})
	var sb strings.Builder
	if err := run(context.Background(), []string{
		"-gate", "-baseline", base, "-filter", "^ReduceNoise$",
	}, &sb); err != nil {
		t.Fatalf("new case failed the gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "new (not gated)") {
		t.Fatalf("new case not reported: %s", sb.String())
	}
}

// TestGateRunsAtBaselineGOMAXPROCS: without -cpu, -gate runs each case at
// the GOMAXPROCS the baseline file records, keyed as CPU 0 so it still
// matches the baseline record; a plain run keeps the process default.
func TestGateRunsAtBaselineGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var seen []int
	cases := []bench.Case{{Name: "Procs", F: func(b *testing.B) {
		seen = append(seen, runtime.GOMAXPROCS(0))
	}}}
	dir := t.TempDir()
	base := writeBaseline(t, dir, File{Date: "2000-01-01", GOMAXPROCS: 1,
		Benchmarks: []Record{{Name: "Procs", NsPerOp: 1e12, AllocsPerOp: 1 << 40}}})
	for _, c := range []struct {
		args  []string
		procs int
	}{
		{[]string{"-gate"}, 1},
		{nil, 2},
	} {
		seen = nil
		outPath := filepath.Join(dir, "out.json")
		args := append(c.args, "-baseline", base, "-out", outPath)
		var sb strings.Builder
		if err := runCases(context.Background(), args, &sb, cases); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, sb.String())
		}
		if len(seen) == 0 {
			t.Fatalf("%v: case never ran", args)
		}
		for _, p := range seen {
			if p != c.procs {
				t.Fatalf("%v: case ran at GOMAXPROCS %v, want %d", args, seen, c.procs)
			}
		}
		raw, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		var f File
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		if f.GOMAXPROCS != c.procs {
			t.Fatalf("%v: file records GOMAXPROCS %d, want %d", args, f.GOMAXPROCS, c.procs)
		}
		if rec := f.Benchmarks[0]; rec.CPU != 0 || rec.Baseline == nil {
			t.Fatalf("%v: record %+v not keyed as the baseline's CPU 0 record", args, rec)
		}
	}
}

// TestRunWritesFile runs the cheapest real case end to end, with a synthetic
// baseline, and checks the JSON schema round-trips with deltas attached.
func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	baseFile := File{
		Date:       "2000-01-01",
		Benchmarks: []Record{{Name: "ReduceNoise", NsPerOp: 1e12, AllocsPerOp: 1 << 40}},
	}
	data, err := json.Marshal(baseFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "out.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{
		"-filter", "^ReduceNoise$",
		"-out", outPath,
		"-baseline", basePath,
	}, &sb); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Name != "ReduceNoise" {
		t.Fatalf("unexpected file contents: %+v", f)
	}
	rec := f.Benchmarks[0]
	if rec.NsPerOp <= 0 || rec.Iterations <= 0 {
		t.Fatalf("implausible measurement: %+v", rec)
	}
	if rec.Baseline == nil || rec.Baseline.NsPerOp != 1e12 {
		t.Fatalf("baseline not embedded: %+v", rec)
	}
	if rec.Speedup <= 1 || rec.AllocsRatio <= 0 {
		t.Fatalf("deltas not computed: speedup=%v allocsRatio=%v", rec.Speedup, rec.AllocsRatio)
	}
	if f.GoVersion == "" || f.GOMAXPROCS <= 0 {
		t.Fatalf("environment metadata missing: %+v", f)
	}
}
