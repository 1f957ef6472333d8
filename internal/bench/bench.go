// Package bench defines the repository's benchmark suite as plain data so
// two front ends can share it: BenchmarkSuite (go test -bench
// ./internal/bench, one sub-benchmark per case) and cmd/bench, which runs
// the suite standalone via testing.Benchmark and writes a BENCH_<date>.json
// trajectory file. Keeping the bodies here means the committed JSON and the
// -bench output always measure the same code.
package bench

import (
	"testing"

	"noisypull"
	"noisypull/internal/experiment"
)

// Case is one named benchmark.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Suite returns every benchmark case in display order.
func Suite() []Case {
	return []Case{
		{"E1FCurve", experimentCase("E1", 1)},
		{"E2LogTime", experimentCase("E2", 2)},
		{"E3SpeedupH", experimentCase("E3", 1)},
		{"E4NoiseSweep", experimentCase("E4", 2)},
		{"E5BiasSweep", experimentCase("E5", 2)},
		{"E6Tightness", experimentCase("E6", 1)},
		{"E7SelfStab", experimentCase("E7", 1)},
		{"E8Overhead", experimentCase("E8", 1)},
		{"E9Plurality", experimentCase("E9", 1)},
		{"E10Reduction", experimentCase("E10", 1)},
		{"E11Baselines", experimentCase("E11", 1)},
		{"E12Separation", experimentCase("E12", 1)},
		{"E13Theory", experimentCase("E13", 2)},
		{"E14Alternating", experimentCase("E14", 2)},
		{"E16Calibration", experimentCase("E16", 3)},
		{"E17Async", experimentCase("E17", 2)},
		{"E18Topology", experimentCase("E18", 2)},
		{"E19Memory", experimentCase("E19", 1)},
		{"E20Crossover", experimentCase("E20", 2)},
		{"E21Faults", experimentCase("E21", 2)},
		{"AblationUniformChannel", UniformChannel},
		{"AblationReducedChannel", ReducedChannel},
		{"ReduceNoise", ReduceNoise},
		{"LargeScaleHn", LargeScaleHn},
		{"ScaleVoter1MAggregate", fixedRoundsCase(1_000_000, 8, 8, noisypull.BackendAggregate, noisypull.VoterBaseline)},
		{"ScaleVoter1MCounts", fixedRoundsCase(1_000_000, 8, 8, noisypull.BackendCounts, noisypull.VoterBaseline)},
		{"ScaleSF1MAggregate", fixedRoundsCase(1_000_000, 8, 8, noisypull.BackendAggregate, noisypull.NewSourceFilter())},
		{"ScaleMajority1MAggregate", fixedRoundsCase(1_000_000, 8, 8, noisypull.BackendAggregate, noisypull.MajorityBaseline)},
		{"ScaleMajority1MCounts", fixedRoundsCase(1_000_000, 8, 8, noisypull.BackendCounts, noisypull.MajorityBaseline)},
		{"ScaleMajority100MCounts", ScaleMajority100MCounts},
		{"ScaleGraphRegular1M", graphRoundsCase},
		{"ScaleKOpinion1M", kOpinionRoundsCase},
		{"ScaleFaultedVec1M", faultedRoundsCase},
		{"RunBatch", RunBatch},
		{"RunBatchSequentialBaseline", RunBatchSequentialBaseline},
		{"TopologyExact", TopologyExact},
	}
}

// ByName returns the named case.
func ByName(name string) (Case, bool) {
	for _, c := range Suite() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// experimentCase benchmarks one registered experiment per iteration at quick
// scale.
func experimentCase(id string, trials int) func(b *testing.B) {
	return func(b *testing.B) {
		b.Helper()
		e, ok := experiment.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			art, err := e.Run(experiment.Options{
				Scale:  experiment.ScaleQuick,
				Trials: trials,
				Seed:   uint64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(art.Tables) == 0 && len(art.Series) == 0 {
				b.Fatal("empty artifact")
			}
		}
	}
}

// UniformChannel and ReducedChannel measure the Theorem 8 reduction overhead
// against a uniform channel of the same effective level.
func UniformChannel(b *testing.B) {
	nm, err := noisypull.UniformNoise(2, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	benchChannel(b, nm)
}

func ReducedChannel(b *testing.B) {
	nm, err := noisypull.AsymmetricNoise(0.1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	benchChannel(b, nm)
}

func benchChannel(b *testing.B, nm *noisypull.NoiseMatrix) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := noisypull.Run(noisypull.Config{
			N: 256, H: 64, Sources1: 1,
			Noise:    nm,
			Protocol: noisypull.NewSourceFilter(),
			Seed:     uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ReduceNoise measures the Theorem 8 decomposition itself (matrix inversion
// + product + validation) on a 4-symbol channel.
func ReduceNoise(b *testing.B) {
	nm, err := noisypull.NoiseFromRows([][]float64{
		{0.85, 0.05, 0.04, 0.06},
		{0.02, 0.90, 0.05, 0.03},
		{0.06, 0.01, 0.88, 0.05},
		{0.03, 0.04, 0.02, 0.91},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := noisypull.ReduceNoise(nm); err != nil {
			b.Fatal(err)
		}
	}
}

// LargeScaleHn showcases the per-agent engine at population scale: every
// one of 20k agents observes all 20k agents every round.
func LargeScaleHn(b *testing.B) {
	const n = 20000
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := noisypull.Run(noisypull.Config{
			N: n, H: n, Sources1: 1,
			Noise:    nm,
			Protocol: noisypull.NewSourceFilter(),
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("large-scale run failed: %d/%d", res.FinalCorrect, n)
		}
		b.ReportMetric(float64(res.Rounds), "rounds/op")
	}
}

// batchTrials is the per-iteration trial count shared by RunBatch and its
// sequential baseline so their ns/trial numbers are directly comparable.
// The shape mirrors the experiment grids' inner loop — many short trials of
// a mid-size population — which is where per-trial construction cost (paid
// by sequential Run, amortized away by RunBatch's Reset reuse) matters.
const batchTrials = 32

func batchConfig(b *testing.B) noisypull.Config {
	b.Helper()
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return noisypull.Config{
		N: 1024, H: 4, Sources1: 1,
		Noise:     nm,
		Protocol:  noisypull.NewSourceFilter(),
		MaxRounds: 24,
	}
}

// RunBatch measures the batched entry point: runners are constructed once
// per worker and rewound with Reset between the 16 trials of each iteration.
func RunBatch(b *testing.B) {
	cfg := batchConfig(b)
	seeds := make([]uint64, batchTrials)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := range seeds {
			seeds[t] = uint64(i*batchTrials + t + 1)
		}
		res, err := noisypull.RunBatch(cfg, seeds)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != batchTrials {
			b.Fatal("short batch")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchTrials), "ns/trial")
}

// RunBatchSequentialBaseline runs the same 16 trials through per-trial
// noisypull.Run calls — the pre-batch code path harness code used to pay.
func RunBatchSequentialBaseline(b *testing.B) {
	cfg := batchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < batchTrials; t++ {
			c := cfg
			c.Seed = uint64(i*batchTrials + t + 1)
			if _, err := noisypull.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchTrials), "ns/trial")
}

// TopologyExact exercises the per-agent engine on a random regular graph
// (the counts backend cannot run one), hitting the cached per-neighborhood
// mixture sampler.
func TopologyExact(b *testing.B) {
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := noisypull.RandomRegularTopology(256, 16, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := noisypull.Run(noisypull.Config{
			N: 256, H: 32, Sources1: 1,
			Noise:    nm,
			Protocol: noisypull.NewSourceFilter(),
			Seed:     uint64(i + 1),
			Topology: g,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rounds), "rounds/op")
	}
}
