package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. The two catalogs below mirror
// BENCHMARK.json; a test keeps them in step.
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"seeds_per_s", "1/s"},
	{"agent_rounds_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"cpu_ms_per_seed", "ms"},
	{"peak_rss_mb", "MB"},
}

// regimeNames are engine-grid's five regimes, in grid order.
var regimeNames = []string{"sf_bin", "majority_bin", "ssf_k4", "voter_graph", "voter_faulted"}

var perLayer = func() []metricDef {
	var m []metricDef
	for _, r := range regimeNames {
		m = append(m, metricDef{"sim.ns_per_agent_round." + r, "ns"})
	}
	m = append(m,
		metricDef{"sim.fault_round_us", "us"},
		metricDef{"sim.parallel_efficiency", "ratio"},
		metricDef{"sim.new_runner_ms", "ms"},
		metricDef{"sim.reset_us", "us"},
		metricDef{"sim.allocs_per_trial", "count"},
		metricDef{"sim.bytes_per_trial", "B"},
	)
	for _, r := range regimeNames {
		m = append(m, metricDef{"sim.allocs_per_trial." + r, "count"})
	}
	for _, r := range regimeNames {
		m = append(m, metricDef{"sim.bytes_per_trial." + r, "B"})
	}
	m = append(m,
		metricDef{"rng.binomial_ns", "ns"},
		metricDef{"rng.multinomial_joint_ns", "ns"},
		metricDef{"rng.alias_ns", "ns"},
		metricDef{"graph.build_s", "s"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.run_ms", "ms"},
		metricDef{"service.stream_tail_ms", "ms"},
		metricDef{"service.handler_ms.submit", "ms"},
		metricDef{"service.handler_ms.stream", "ms"},
		metricDef{"service.handler_ms.get", "ms"},
		metricDef{"service.stream_events_per_seed", "count"},
		metricDef{"service.stream_bytes_per_seed", "B"},
		metricDef{"service.stream_delivered_frac", "ratio"},
		metricDef{"service.journal_bytes_per_seed", "B"},
		metricDef{"service.journal_ms_per_job", "ms"},
		metricDef{"service.checkpoints_per_job", "count"},
		metricDef{"fleet.rpc_ms.register", "ms"},
		metricDef{"fleet.rpc_ms.poll", "ms"},
		metricDef{"fleet.rpc_ms.heartbeat", "ms"},
		metricDef{"fleet.rpc_ms.result", "ms"},
		metricDef{"fleet.handler_ms.poll", "ms"},
		metricDef{"fleet.handler_ms.heartbeat", "ms"},
		metricDef{"fleet.handler_ms.result", "ms"},
		metricDef{"fleet.wire_bytes_per_seed", "B"},
		metricDef{"fleet.polls_per_seed", "count"},
		metricDef{"fleet.empty_poll_frac", "ratio"},
		metricDef{"fleet.lease_exec_ms", "ms"},
		metricDef{"fleet.seeds_per_lease", "count"},
		metricDef{"fleet.computed_per_admitted", "ratio"},
		metricDef{"fleet.dispatch_ms", "ms"},
		metricDef{"fleet.release_lag_ms", "ms"},
		metricDef{"fleet.attest_us_per_seed", "us"},
		metricDef{"fleet.hmac_us_per_kb", "us"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return m
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p50 records the median of a sample as a metric, with its sample count.
// An empty sample records nothing.
func (r *report) p50(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.Metrics[name] = median(xs)
	r.Samples[name] = len(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapAllocs is a cumulative heap allocation count. ReadMemStats flushes
// every P's cache first, so deltas are exact, the same counts testing's
// allocs/op uses.
type heapAllocs struct{ objects, bytes uint64 }

func readAllocs() heapAllocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapAllocs{objects: m.Mallocs, bytes: m.TotalAlloc}
}

func (a heapAllocs) sub(b heapAllocs) heapAllocs {
	return heapAllocs{objects: a.objects - b.objects, bytes: a.bytes - b.bytes}
}

// window measures one timed interval: wall time, process CPU and heap
// allocations.
type window struct {
	start  time.Time
	cpu    time.Duration
	allocs heapAllocs
}

func openWindow() window {
	return window{start: time.Now(), cpu: cpuTime(), allocs: readAllocs()}
}

type windowStats struct {
	elapsed time.Duration
	cpu     time.Duration
	allocs  heapAllocs
}

func (w window) close() windowStats {
	return windowStats{
		elapsed: time.Since(w.start),
		cpu:     cpuTime() - w.cpu,
		allocs:  readAllocs().sub(w.allocs),
	}
}

// endToEndMetrics fills the untraced metrics every workload reports from
// its window, completed trials, Σ n·rounds and client-seen job latencies.
func (r *report) endToEndMetrics(ws windowStats, trials int, agentRounds float64, jobLatencies []float64) error {
	if trials == 0 {
		return fmt.Errorf("no trial completed in the %v window", ws.elapsed)
	}
	secs := ws.elapsed.Seconds()
	r.Metrics["seeds_per_s"] = float64(trials) / secs
	r.Metrics["agent_rounds_per_s"] = agentRounds / secs
	r.Metrics["job_p50_ms"] = quantile(jobLatencies, 0.5)
	r.Metrics["job_p90_ms"] = quantile(jobLatencies, 0.9)
	r.Samples["job_p50_ms"] = len(jobLatencies)
	r.Samples["job_p90_ms"] = len(jobLatencies)
	r.Metrics["cpu_ms_per_seed"] = ms(ws.cpu) / float64(trials)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.Metrics["peak_rss_mb"] = rss
	r.Context["window_s"] = secs
	return nil
}

// allocMetrics fills the workload-wide allocation metrics from an
// untraced window.
func (r *report) allocMetrics(ws windowStats, trials int) {
	if trials == 0 {
		return
	}
	r.Metrics["sim.allocs_per_trial"] = float64(ws.allocs.objects) / float64(trials)
	r.Metrics["sim.bytes_per_trial"] = float64(ws.allocs.bytes) / float64(trials)
}

// repeatSetup sets a workload up reps times, tearing down all but the last
// set-up, records setup_s as the median set-up time, and returns the last.
func repeatSetup[T any](r *report, reps int, setup func() (T, error), teardown func(T)) (T, error) {
	xs := make([]float64, 0, reps)
	var rig T
	for k := 0; k < reps; k++ {
		if k > 0 {
			teardown(rig)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if rig, err = setup(); err != nil {
			return rig, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	r.Metrics["setup_s"] = median(xs)
	r.Samples["setup_s"] = len(xs)
	return rig, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
