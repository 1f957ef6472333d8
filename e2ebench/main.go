// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one workload from a single load generator, checks every output
// against a fresh in-process run of the engine, and prints the metrics that
// BENCHMARK.json names as the last line of standard output:
//
//	bash e2ebench/run.sh --workload engine-grid --seed 1 --seconds 20 --trace 0
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//
//   - engine-grid: one in-process caller runs a fixed grid of fixed-round
//     trials at n = 10⁶ over five vectorized regimes on reusable runners.
//   - simd-stream: two HTTP clients submit small jobs to an in-process simd
//     with its journal on and stream every job's NDJSON to the terminal line.
//   - fleet-quorum: two HTTP clients submit 16-seed SF jobs to a fleet
//     coordinator with two loopback workers, HMAC auth and a 2-node quorum.
//
// The benchmark measures the program from outside: it calls only public
// entry points and times them by wrapping hooks they already accept (the
// http.Client of service.Client, route middleware, service.Dispatcher and
// fleet.Binding). With --trace 0 the last line carries the end-to-end
// metrics of an untraced run. With --trace 1 the run records spans around
// those calls, writes them to the scratch directory, and prints the
// per-layer metrics instead. The line before the result carries the run
// context: commit, Go version, GOMAXPROCS, nproc, seed, client count, loop
// type, the sample count behind each percentile and the error rate.
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
	"runtime"
	"sort"
	"time"

	"noisypull/internal/buildinfo"
	"noisypull/internal/service"
)

// gomaxprocs pins the scheduler to the two cores the benchmark is sized for:
// at most two busy simulation goroutines and at most two load generators.
const gomaxprocs = 2

// options configures one benchmark run. The scale knobs default to the
// benchmark's sizes; tests shrink them.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Scratch  string

	EngineN   int // engine-grid population size
	SetupReps int // set-ups per untraced run, 0 for the workload's default; setup_s is their median
	Quorum    int // fleet-quorum VerifySeeds
	// Lie, when set, is the second fleet worker's WorkerConfig.Lie hook.
	Lie func([]service.SeedResult, string) ([]service.SeedResult, string)
}

func defaultOptions() options {
	return options{
		Seconds: 20,
		Scratch: ".bench_build/e2ebench-run",
		EngineN: 1_000_000,
		Quorum:  2,
	}
}

// setupReps is the number of set-ups an untraced run makes: def unless
// the options override it. Cheap set-ups repeat more, so their median
// holds still.
func (o options) setupReps(def int) int {
	if o.SetupReps > 0 {
		return o.SetupReps
	}
	return def
}

func parseFlags(args []string) (options, error) {
	o := defaultOptions()
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "workload: engine-grid, simd-stream or fleet-quorum")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.Seconds, "seconds", o.Seconds, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics, 0 prints end-to-end metrics")
	fs.StringVar(&o.Scratch, "scratch", o.Scratch, "directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.Workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.Seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.Trace = *trace == 1
	return o, nil
}

// workload runs one workload and fills the report.
type workload struct {
	clients int
	loop    string
	run     func(ctx context.Context, o options, rep *report) error
}

var workloads = map[string]workload{
	"engine-grid":  {clients: 1, loop: "closed", run: runEngineGrid},
	"simd-stream":  {clients: 2, loop: "closed", run: runSimdStream},
	"fleet-quorum": {clients: 2, loop: "closed", run: runFleetQuorum},
}

// report is what one run measured.
type report struct {
	Attempted int
	Failed    int
	Errors    []string           // the first few failure descriptions
	Metrics   map[string]float64 // by catalog name
	Samples   map[string]int     // sample count behind each percentile metric
	Context   map[string]any     // extra run context (self times, trace file)
}

func newReport() *report {
	return &report{Metrics: map[string]float64{}, Samples: map[string]int{}, Context: map[string]any{}}
}

const maxErrors = 8

// fail counts n failed trials and keeps the first few reasons.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func run(ctx context.Context, o options) (*report, error) {
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(o.Scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	rep := newReport()
	if err := workloads[o.Workload].run(ctx, o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the machine-read result.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the context line and then the result line. The result
// holds exactly the catalog's metrics for the run's mode; a per-layer metric
// of a layer the workload does not drive reads 0 and is listed in the
// context as not exercised.
func writeResult(w io.Writer, o options, rep *report) error {
	wl := workloads[o.Workload]
	cat := endToEnd
	if o.Trace {
		cat = perLayer
	}
	res := resultLine{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(cat)),
	}
	var missing []string
	for _, m := range cat {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if !o.Trace && len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %v", o.Workload, missing)
	}
	sort.Strings(missing)
	errRate := 0.0
	if rep.Attempted > 0 {
		errRate = float64(rep.Failed) / float64(rep.Attempted)
	}
	ctx := map[string]any{
		"workload":   o.Workload,
		"seed":       o.Seed,
		"trace":      o.Trace,
		"seconds":    o.Seconds,
		"commit":     buildinfo.Version(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"clients":    wl.clients,
		"loop":       wl.loop,
		"samples":    rep.Samples,
		"error_rate": errRate,
		"errors":     rep.Errors,
	}
	if o.Trace {
		ctx["not_exercised"] = missing
	}
	for k, v := range rep.Context {
		ctx[k] = v
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": ctx}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runTimeout bounds a run, so a hung job fails the benchmark rather than
// outliving its time budget.
const runTimeout = 170 * time.Second

func main() { os.Exit(mainCode()) }

func mainCode() int {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rep, err := run(ctx, o)
	if err == nil {
		err = writeResult(os.Stdout, o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}
