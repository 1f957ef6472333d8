package experiment

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/report"
	"noisypull/internal/sim"
)

// quickPins holds the sha256 of every CSV file TestAllExperimentsRunQuick's
// artifacts render to, one "<hex>  <file>" line each, sorted by file name.
// Rewrite it with
//
//	go test ./internal/experiment -run TestAllExperimentsRunQuick -update
//
// only for a change meant to move experiment results, never to paper over
// an engine diff.
var (
	updatePins = flag.Bool("update", false, "rewrite "+quickPins)
	quickPins  = filepath.Join("testdata", "quick.sha256")
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registered %d experiments, want 20", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("E7")
	if !ok || e.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", e, ok)
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) found something")
	}
}

func TestIDsNumericOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("IDs = %v", ids)
	}
	if ids[0] != "E1" || ids[1] != "E2" || ids[9] != "E10" || ids[14] != "E16" || ids[19] != "E21" {
		t.Fatalf("IDs not in numeric order: %v", ids)
	}
}

func TestScaleString(t *testing.T) {
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" || Scale(9).String() == "" {
		t.Fatal("scale strings wrong")
	}
}

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	a := trialSeed(1, 2, 3)
	if a != trialSeed(1, 2, 3) {
		t.Fatal("trialSeed not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for g := 0; g < 10; g++ {
		for tr := 0; tr < 10; tr++ {
			if g == 2 && tr == 3 {
				continue
			}
			s := trialSeed(1, g, tr)
			if seen[s] {
				t.Fatalf("seed collision at g=%d t=%d", g, tr)
			}
			seen[s] = true
		}
	}
}

func TestRunTrialsAggregation(t *testing.T) {
	nm, err := noise.Uniform(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 7, Parallel: 2}
	batch, err := runTrials(opts, 0, 6, sim.Config{
		N: 200, H: 16, Sources1: 1, Sources0: 0,
		Noise:    nm,
		Protocol: protocol.NewSF(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Trials != 6 || len(batch.Durations) != 6 {
		t.Fatalf("batch = %+v", batch)
	}
	if batch.SuccessRate() < 0.5 {
		t.Fatalf("suspiciously low success rate %v", batch.SuccessRate())
	}
	if batch.MedianDuration() <= 0 {
		t.Fatal("median duration not positive")
	}
	if batch.Successes > 0 && batch.MedianRecovery() <= 0 {
		t.Fatal("median recovery not positive despite successes")
	}
	w := batch.Wilson95()
	if w.Lo > w.Estimate || w.Hi < w.Estimate {
		t.Fatalf("Wilson interval %v does not bracket", w)
	}
}

func TestRunTrialsPropagatesErrors(t *testing.T) {
	if _, err := runTrials(Options{}, 0, 0, sim.Config{}); err == nil {
		t.Fatal("zero trials did not error")
	}
	if _, err := runTrials(Options{}, 0, 2, sim.Config{}); err == nil { // invalid
		t.Fatal("invalid config did not error")
	}
}

func TestTrialBatchEmpty(t *testing.T) {
	b := &trialBatch{}
	if b.SuccessRate() != 0 || b.MedianRecovery() != 0 {
		t.Fatal("empty batch stats nonzero")
	}
}

// TestAllExperimentsRunQuick executes every experiment at quick scale with
// minimal trials — the smoke test that the full harness is runnable end to
// end and produces populated artifacts — asserts E21's verdict, and checks
// every table and series, rendered as CSV as cmd/experiments -csv writes
// them, against its pinned hash.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	got := make(map[string]string)
	ran := make(map[string]bool)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ran[e.ID] = true
			art, err := e.Run(Options{Scale: ScaleQuick, Trials: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if art.ID != e.ID {
				t.Fatalf("artifact id %s != %s", art.ID, e.ID)
			}
			if len(art.Tables) == 0 && len(art.Series) == 0 {
				t.Fatal("artifact has neither tables nor series")
			}
			if len(art.Notes) == 0 {
				t.Fatal("artifact has no shape notes")
			}
			for _, tb := range art.Tables {
				if tb.NumRows() == 0 {
					t.Fatalf("empty table %q", tb.Title)
				}
				if !strings.Contains(tb.String(), "-") {
					t.Fatalf("table %q renders empty", tb.Title)
				}
			}
			if e.ID == "E21" {
				checkE21Verdict(t, art)
			}
			for name, sum := range csvHashes(t, art) {
				got[name] = sum
			}
		})
	}
	if t.Failed() {
		return
	}
	if *updatePins {
		if len(ran) != len(All()) {
			t.Fatal("-update rewrites every pin, so it needs every experiment to run")
		}
		writePins(t, got)
		return
	}
	want := readPins(t)
	for name, sum := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in %s (run with -update to add it)", name, quickPins)
		} else if sum != w {
			t.Errorf("%s: sha256 %s, pinned %s", name, sum, w)
		}
	}
	for name := range want {
		id, _, _ := strings.Cut(name, "_")
		if _, ok := got[name]; ran[id] && !ok {
			t.Errorf("%s: pinned in %s, but %s did not render it", name, quickPins, id)
		}
	}
}

// csvHashes renders art's series and tables to the CSV files cmd/experiments
// -csv writes (<ID>_series.csv, <ID>_table<i>.csv) and returns the sha256
// of each, by file name.
func csvHashes(t *testing.T, art *Artifact) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	add := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		sums[name] = hex.EncodeToString(sum[:])
	}
	if len(art.Series) > 0 {
		add(art.ID+"_series.csv", func(b *bytes.Buffer) error { return report.WriteSeriesCSV(b, art.Series...) })
	}
	for i, tb := range art.Tables {
		add(fmt.Sprintf("%s_table%d.csv", art.ID, i+1), func(b *bytes.Buffer) error { return tb.WriteCSV(b) })
	}
	return sums
}

func readPins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(quickPins)
	if err != nil {
		t.Fatalf("reading pins (run with -update to create them): %v", err)
	}
	want := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", quickPins, sc.Text())
		}
		want[name] = sum
	}
	return want
}

func writePins(t *testing.T, sums map[string]string) {
	t.Helper()
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "%s  %s\n", sums[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(quickPins), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quickPins, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkE21Verdict reads E21's recovery table: at every h, SSF recovers from
// the mid-run corruption in every trial, and SF run past its horizon in
// none.
func checkE21Verdict(t *testing.T, art *Artifact) {
	t.Helper()
	tb := art.Tables[0]
	col := make(map[string]int)
	for i, c := range tb.Columns {
		col[c] = i
	}
	want := map[string]string{"SSF": "1", "SF (unbounded)": "0"}
	rows := make(map[string]int)
	for i := 0; i < tb.NumRows(); i++ {
		row := tb.Row(i)
		proto, h, rate := row[col["protocol"]], row[col["h"]], row[col["recovery rate"]]
		w, ok := want[proto]
		if !ok {
			t.Fatalf("E21 row %d: unexpected protocol %q", i, proto)
		}
		if rate != w {
			t.Errorf("E21 h=%s %s: recovery rate %s, want %s", h, proto, rate, w)
		}
		rows[proto]++
	}
	if rows["SSF"] == 0 || rows["SSF"] != rows["SF (unbounded)"] {
		t.Errorf("E21 table has %d SSF and %d SF rows, want one of each per h", rows["SSF"], rows["SF (unbounded)"])
	}
}

// TestExperimentArtifactsDeterministic re-runs an experiment with identical
// options and requires byte-identical tables — the whole pipeline (trial
// seeding, concurrent execution, aggregation, rendering) must be
// reproducible, on the synchronous engine and (E17) the asynchronous
// scheduler alike, with notes in a fixed order (E19).
func TestExperimentArtifactsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	for _, id := range []string{"E1", "E2", "E17", "E19"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		render := func() string {
			art, err := e.Run(Options{Scale: ScaleQuick, Trials: 2, Seed: 77, Parallel: 3})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, tb := range art.Tables {
				sb.WriteString(tb.String())
			}
			for _, note := range art.Notes {
				sb.WriteString(note)
			}
			return sb.String()
		}
		if a, b := render(), render(); a != b {
			t.Fatalf("%s artifacts differ between identical runs:\n--- first\n%s\n--- second\n%s", id, a, b)
		}
	}
}
