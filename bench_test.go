package noisypull_test

// One benchmark per reproduction experiment (DESIGN.md §4) plus the
// ablation and engine benchmarks of DESIGN.md §3. Run with:
//
//	go test -bench=. -benchmem
//
// The bodies live in internal/bench so that cmd/bench (the standalone
// trajectory harness writing BENCH_<date>.json) measures exactly the same
// code; this file only binds them to go test's runner under stable names.

import (
	"testing"

	"noisypull/internal/bench"
)

func run(b *testing.B, name string) {
	c, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown bench case %s", name)
	}
	c.F(b)
}

func BenchmarkE1FCurve(b *testing.B)       { run(b, "E1FCurve") }
func BenchmarkE2LogTime(b *testing.B)      { run(b, "E2LogTime") }
func BenchmarkE3SpeedupH(b *testing.B)     { run(b, "E3SpeedupH") }
func BenchmarkE4NoiseSweep(b *testing.B)   { run(b, "E4NoiseSweep") }
func BenchmarkE5BiasSweep(b *testing.B)    { run(b, "E5BiasSweep") }
func BenchmarkE6Tightness(b *testing.B)    { run(b, "E6Tightness") }
func BenchmarkE7SelfStab(b *testing.B)     { run(b, "E7SelfStab") }
func BenchmarkE8Overhead(b *testing.B)     { run(b, "E8Overhead") }
func BenchmarkE9Plurality(b *testing.B)    { run(b, "E9Plurality") }
func BenchmarkE10Reduction(b *testing.B)   { run(b, "E10Reduction") }
func BenchmarkE11Baselines(b *testing.B)   { run(b, "E11Baselines") }
func BenchmarkE12Separation(b *testing.B)  { run(b, "E12Separation") }
func BenchmarkE13Theory(b *testing.B)      { run(b, "E13Theory") }
func BenchmarkE14Alternating(b *testing.B) { run(b, "E14Alternating") }
func BenchmarkE16Calibration(b *testing.B) { run(b, "E16Calibration") }
func BenchmarkE17Async(b *testing.B)       { run(b, "E17Async") }
func BenchmarkE18Topology(b *testing.B)    { run(b, "E18Topology") }
func BenchmarkE19Memory(b *testing.B)      { run(b, "E19Memory") }
func BenchmarkE20Crossover(b *testing.B)   { run(b, "E20Crossover") }
func BenchmarkE21Faults(b *testing.B)      { run(b, "E21Faults") }

// AblationArtificialNoise measures the overhead of the Theorem 8 reduction
// path against a uniform channel of the same effective level.
func BenchmarkAblationUniformChannel(b *testing.B) { run(b, "AblationUniformChannel") }
func BenchmarkAblationReducedChannel(b *testing.B) { run(b, "AblationReducedChannel") }

// BenchmarkReduceNoise measures the Theorem 8 decomposition itself.
func BenchmarkReduceNoise(b *testing.B) { run(b, "ReduceNoise") }

// BenchmarkLargeScaleHn showcases the aggregate backend at population
// scale: every one of 20k agents observes all 20k agents every round.
func BenchmarkLargeScaleHn(b *testing.B) { run(b, "LargeScaleHn") }

// BenchmarkRunBatch vs BenchmarkRunBatchSequentialBaseline: the batched
// entry point (runner reuse via Reset) against per-trial noisypull.Run over
// the same seeds. Compare the ns/trial metric.
func BenchmarkRunBatch(b *testing.B)                   { run(b, "RunBatch") }
func BenchmarkRunBatchSequentialBaseline(b *testing.B) { run(b, "RunBatchSequentialBaseline") }

// BenchmarkTopologyExact exercises the graph-restricted exact backend with
// the cached per-neighborhood mixture sampler.
func BenchmarkTopologyExact(b *testing.B) { run(b, "TopologyExact") }

// Scale benchmarks: identical fixed-round workloads at n = 10⁶ under the
// aggregate and counts backends (ns/op ratio = per-round speedup), plus a
// full n = 10⁸ convergence run only the counts backend can afford. The
// per-agent cases run the built-in protocols' struct-of-arrays kernels.
func BenchmarkScaleVoter1MAggregate(b *testing.B)    { run(b, "ScaleVoter1MAggregate") }
func BenchmarkScaleVoter1MExact(b *testing.B)        { run(b, "ScaleVoter1MExact") }
func BenchmarkScaleVoter1MCounts(b *testing.B)       { run(b, "ScaleVoter1MCounts") }
func BenchmarkScaleSF1MAggregate(b *testing.B)       { run(b, "ScaleSF1MAggregate") }
func BenchmarkScaleMajority1MAggregate(b *testing.B) { run(b, "ScaleMajority1MAggregate") }
func BenchmarkScaleMajority1MCounts(b *testing.B)    { run(b, "ScaleMajority1MCounts") }
func BenchmarkScaleMajority100MCounts(b *testing.B)  { run(b, "ScaleMajority100MCounts") }
