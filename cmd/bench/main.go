// Command bench runs the repository benchmark suite (internal/bench — the
// same cases go test -bench executes) outside the test runner and writes a
// machine-readable trajectory file, so performance can be tracked commit to
// commit by diffing BENCH_<date>.json files at the repo root.
//
//	bench                              # full suite -> BENCH_<today>.json
//	bench -filter 'Ablation|RunBatch'  # subset by regexp
//	bench -baseline BENCH_old.json     # embed old numbers + speedups
//	bench -cpu 1,4,8                   # sweep GOMAXPROCS per case
//	bench -list                        # print case names and exit
//	bench -gate -baseline BENCH.json   # CI perf gate: fail on regression
//
// Without -cpu, the gate runs every case at the GOMAXPROCS its baseline
// file records, so cases whose work follows the worker count (RunBatch
// allocates one runner per worker) compare like with like on any runner.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"noisypull/internal/bench"
	"noisypull/internal/buildinfo"
)

// Record is one benchmark measurement in the output file.
type Record struct {
	Name string `json:"name"`
	// CPU is the GOMAXPROCS the case ran under when -cpu was given; 0 means
	// the process default (single-run mode, the historical schema).
	CPU         int                `json:"cpu,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Iterations  int                `json:"iterations"`
	Extra       map[string]float64 `json:"extra,omitempty"`

	// Filled in when -baseline is given and the baseline file has this case.
	Baseline *Record `json:"baseline,omitempty"`
	// Speedup is baseline ns/op divided by current ns/op (>1 = faster now).
	Speedup float64 `json:"speedup,omitempty"`
	// AllocsRatio is current allocs/op divided by baseline allocs/op.
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
}

// File is the schema of BENCH_<date>.json.
type File struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Notes carries free-form annotations about the measurement environment
	// or anomalies (-note flag), so a trajectory file can explain itself.
	Notes      []string `json:"notes,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	return runCases(ctx, args, out, bench.Suite())
}

// runCases is run over the given cases instead of the repository suite.
func runCases(ctx context.Context, args []string, out io.Writer, cases []bench.Case) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		filter   = fs.String("filter", ".", "regexp selecting case names to run")
		outPath  = fs.String("out", "", "output file (default BENCH_<today>.json)")
		baseline = fs.String("baseline", "", "prior BENCH_*.json to compare against")
		cpuList  = fs.String("cpu", "", "comma-separated GOMAXPROCS values to sweep per case (e.g. 1,4,8)")
		list     = fs.Bool("list", false, "list case names and exit")
		version  = fs.Bool("version", false, "print version and exit")
		gate     = fs.Bool("gate", false, "perf-gate mode: compare against -baseline, print a delta table, and fail on regression; no output file is written unless -out is set")
		gateNs   = fs.Float64("gate-ns", 1.25, "gate: max tolerated ns/op ratio vs baseline (1.25 = +25%); generous because CI runners are noisy")
		gateAllo = fs.Float64("gate-allocs", 1.25, "gate: max tolerated allocs/op ratio vs baseline (allocation counts are near-deterministic, so regressions are real)")
	)
	var notes noteList
	fs.Var(&notes, "note", "annotation recorded in the output file's notes array (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bench"))
		return nil
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		return fmt.Errorf("bad -filter: %w", err)
	}
	cpus, err := parseCPUList(*cpuList)
	if err != nil {
		return err
	}
	if *list {
		for _, c := range cases {
			if re.MatchString(c.Name) {
				fmt.Fprintln(out, c.Name)
			}
		}
		return nil
	}

	if *gate && *baseline == "" {
		return errors.New("-gate requires -baseline (the committed BENCH_*.json to diff against)")
	}
	if *gateNs <= 0 || *gateAllo <= 0 {
		return fmt.Errorf("gate tolerances must be positive, got -gate-ns %v -gate-allocs %v", *gateNs, *gateAllo)
	}

	var base map[string]Record
	// procs is the GOMAXPROCS of the cases run without -cpu: the process
	// default, or in -gate mode the baseline's, recorded as CPU 0 so the
	// records keep matching the baseline's keys.
	procs := 0
	if *baseline != "" {
		var baseProcs int
		if base, baseProcs, err = loadBaseline(*baseline); err != nil {
			return err
		}
		if *gate && *cpuList == "" {
			procs = baseProcs
		}
	}

	file := File{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Notes:      notes,
	}
	if procs > 0 {
		file.GOMAXPROCS = procs
	}
	for _, c := range cases {
		if !re.MatchString(c.Name) {
			continue
		}
		// With no -cpu sweep the historical single-record schema is emitted
		// (CPU=0, process-default GOMAXPROCS). With a sweep, each case yields
		// one record per requested parallelism; the smallest value anchors the
		// parallel-efficiency metric.
		var baseNs float64
		baseCPU := 0
		for _, cpu := range cpus {
			// A Ctrl-C/SIGTERM lands here between runs: abort without writing
			// a partial trajectory file (a truncated BENCH_<date>.json would
			// skew commit-to-commit comparisons).
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted after %d record(s), no output written: %w", len(file.Benchmarks), err)
			}
			label := c.Name
			if cpu > 0 {
				label = fmt.Sprintf("%s@%d", c.Name, cpu)
			}
			fmt.Fprintf(out, "%-28s ", label)
			runAt := cpu
			if cpu == 0 {
				runAt = procs
			}
			res := benchmarkAt(runAt, c.F)
			rec := Record{
				Name:        c.Name,
				CPU:         cpu,
				NsPerOp:     float64(res.NsPerOp()),
				BytesPerOp:  res.AllocedBytesPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				Iterations:  res.N,
				Extra:       res.Extra,
			}
			if cpu > 0 {
				if baseCPU == 0 {
					baseNs, baseCPU = rec.NsPerOp, cpu
				}
				// Efficiency of the worker pool relative to the smallest
				// swept parallelism: observed speedup divided by the ideal
				// cpu ratio. 1.0 = perfect scaling, below = sync overhead.
				if rec.NsPerOp > 0 {
					eff := baseNs * float64(baseCPU) / (rec.NsPerOp * float64(cpu))
					if rec.Extra == nil {
						rec.Extra = map[string]float64{}
					}
					rec.Extra["parallel_efficiency"] = eff
				}
			}
			fmt.Fprintf(out, "%12.0f ns/op %10d B/op %8d allocs/op",
				rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
			if eff, ok := rec.Extra["parallel_efficiency"]; ok && cpu != baseCPU {
				fmt.Fprintf(out, "  %4.2f eff", eff)
			}
			if b, ok := base[recordKey(rec.Name, rec.CPU)]; ok {
				bc := b
				rec.Baseline = &bc
				if rec.NsPerOp > 0 {
					rec.Speedup = b.NsPerOp / rec.NsPerOp
				}
				if b.AllocsPerOp > 0 {
					rec.AllocsRatio = float64(rec.AllocsPerOp) / float64(b.AllocsPerOp)
				}
				fmt.Fprintf(out, "  %5.2fx vs baseline", rec.Speedup)
			}
			fmt.Fprintln(out)
			file.Benchmarks = append(file.Benchmarks, rec)
		}
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("no cases match -filter %q", *filter)
	}

	if !*gate || *outPath != "" {
		path := *outPath
		if path == "" {
			path = "BENCH_" + file.Date + ".json"
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
	}
	if *gate {
		return gateReport(out, *baseline, file.Benchmarks, *gateNs, *gateAllo)
	}
	return nil
}

// gateReport prints a benchstat-style delta table of the fresh records
// against their baselines and returns an error naming every case whose
// ns/op or allocs/op ratio exceeds its tolerance. Cases absent from the
// baseline are listed as new and never fail the gate (the next committed
// baseline picks them up).
func gateReport(out io.Writer, baselinePath string, recs []Record, nsTol, allocTol float64) error {
	fmt.Fprintf(out, "\nperf gate vs %s (tolerances: %.2fx ns/op, %.2fx allocs/op)\n", baselinePath, nsTol, allocTol)
	fmt.Fprintf(out, "%-28s %14s %14s %8s %12s %12s %8s  %s\n",
		"name", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta", "status")
	var failures []string
	for _, rec := range recs {
		name := recordKey(rec.Name, rec.CPU)
		if rec.Baseline == nil {
			fmt.Fprintf(out, "%-28s %14s %14.0f %8s %12s %12d %8s  new (not gated)\n",
				name, "-", rec.NsPerOp, "-", "-", rec.AllocsPerOp, "-")
			continue
		}
		b := rec.Baseline
		status := "ok"
		if b.NsPerOp > 0 && rec.NsPerOp > b.NsPerOp*nsTol {
			status = "REGRESSION: ns/op"
			failures = append(failures, fmt.Sprintf("%s ns/op %.0f -> %.0f (%+.1f%%, tolerance %+.0f%%)",
				name, b.NsPerOp, rec.NsPerOp, deltaPct(b.NsPerOp, rec.NsPerOp), (nsTol-1)*100))
		}
		if b.AllocsPerOp > 0 && float64(rec.AllocsPerOp) > float64(b.AllocsPerOp)*allocTol {
			if status == "ok" {
				status = "REGRESSION: allocs/op"
			} else {
				status += "+allocs/op"
			}
			failures = append(failures, fmt.Sprintf("%s allocs/op %d -> %d (%+.1f%%, tolerance %+.0f%%)",
				name, b.AllocsPerOp, rec.AllocsPerOp, deltaPct(float64(b.AllocsPerOp), float64(rec.AllocsPerOp)), (allocTol-1)*100))
		}
		fmt.Fprintf(out, "%-28s %14.0f %14.0f %+7.1f%% %12d %12d %+7.1f%%  %s\n",
			name, b.NsPerOp, rec.NsPerOp, deltaPct(b.NsPerOp, rec.NsPerOp),
			b.AllocsPerOp, rec.AllocsPerOp, deltaPct(float64(b.AllocsPerOp), float64(rec.AllocsPerOp)),
			status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed, %d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(out, "perf gate passed")
	return nil
}

// deltaPct is the benchstat-style percentage change from old to new.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// noteList collects repeated -note flags.
type noteList []string

func (n *noteList) String() string { return strings.Join(*n, "; ") }

func (n *noteList) Set(v string) error {
	*n = append(*n, v)
	return nil
}

// parseCPUList parses the -cpu flag into the GOMAXPROCS values to sweep.
// An empty flag yields the single sentinel 0: one run at the process
// default, recorded without a cpu field (the historical schema).
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
	var cpus []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -cpu %q: want comma-separated positive integers", s)
		}
		if !seen[v] {
			seen[v] = true
			cpus = append(cpus, v)
		}
	}
	// Ascending order so the smallest parallelism anchors efficiency.
	sort.Ints(cpus)
	return cpus, nil
}

// benchmarkAt runs one case under the given GOMAXPROCS (0 = leave the
// process default untouched), restoring the previous value afterwards.
func benchmarkAt(cpu int, f func(b *testing.B)) testing.BenchmarkResult {
	if cpu > 0 {
		prev := runtime.GOMAXPROCS(cpu)
		defer runtime.GOMAXPROCS(prev)
	}
	return testing.Benchmark(f)
}

// recordKey is the baseline-lookup key: the bare case name for historical
// single-run records, name@cpu for swept ones.
func recordKey(name string, cpu int) string {
	if cpu > 0 {
		return fmt.Sprintf("%s@%d", name, cpu)
	}
	return name
}

// loadBaseline indexes a prior output file by case name (and cpu, for files
// written with -cpu), and returns the GOMAXPROCS the file records.
func loadBaseline(path string) (map[string]Record, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, 0, fmt.Errorf("baseline %s: %w", path, err)
	}
	m := make(map[string]Record, len(f.Benchmarks))
	for _, r := range f.Benchmarks {
		r.Baseline = nil // do not chain baselines across generations
		m[recordKey(r.Name, r.CPU)] = r
	}
	return m, f.GOMAXPROCS, nil
}
