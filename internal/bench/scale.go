package bench

import (
	"sync"
	"testing"

	"noisypull"
)

// This file holds the backend-scaling cases introduced with the counts
// backend: identical fixed-round workloads at n = 10⁶ under the per-agent
// engine and the counts backend (their ns/op ratio is the per-round
// speedup), plus a full convergence run at n = 10⁸ that only the counts
// backend can afford.
// The Graph/KOpinion/Faulted cases cover the workloads the struct-of-arrays
// kernels gained last: per-neighborhood observation laws over a CSR graph,
// alphabet-4 multinomial kernels, and agent-level fault schedules applied
// on the SoA population.

// fixedRoundsCase measures exactly maxRounds rounds of the given baseline
// dynamics at population n — the stability window equals the round budget,
// so converging early would require an all-correct population from round 1
// on, unreachable with 1% sources (the Rounds check below enforces it).
// Every backend therefore executes the identical number of rounds. The
// per-agent engine runs the built-in protocols' struct-of-arrays kernels;
// BENCH_2026-08-08.json also holds *Scalar twins timed on a per-agent loop
// the engine no longer has, which the gate skips as baseline-only cases.
func fixedRoundsCase(n, h, maxRounds int, backend noisypull.Backend, proto noisypull.Protocol) func(b *testing.B) {
	return fixedRoundsCaseOpts(n, h, maxRounds, backend, proto, nil)
}

// fixedRoundsCaseOpts is the shared body: mutate, when non-nil, customizes
// the config per iteration (alphabet, topology, fault schedule) after the
// baseline fields are filled in.
func fixedRoundsCaseOpts(n, h, maxRounds int, backend noisypull.Backend, proto noisypull.Protocol, mutate func(b *testing.B, cfg *noisypull.Config)) func(b *testing.B) {
	return func(b *testing.B) {
		b.Helper()
		nm, err := noisypull.UniformNoise(2, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		s1 := n / 100
		if s1 < 1 {
			s1 = 1
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := noisypull.Config{
				N: n, H: h, Sources1: s1,
				Noise:           nm,
				Protocol:        proto,
				Seed:            uint64(i + 1),
				Backend:         backend,
				MaxRounds:       maxRounds,
				StabilityWindow: maxRounds,
			}
			if mutate != nil {
				mutate(b, &cfg)
			}
			res, err := noisypull.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rounds != maxRounds {
				b.Fatalf("ran %d rounds, want %d", res.Rounds, maxRounds)
			}
		}
	}
}

// regular1MGraph builds the shared 8-regular graph at n = 10⁶ exactly once —
// graph construction (about 0.3 s on a 2-core host) must not be charged to
// the Graph case (Run itself is inside the timed loop; the first b.N
// iteration pays the Once, so callers build it before ResetTimer via
// warming: the case functions call it eagerly outside the loop).
var (
	regular1MOnce sync.Once
	regular1M     *noisypull.Topology
	regular1MErr  error
)

func regular1MGraph() (*noisypull.Topology, error) {
	regular1MOnce.Do(func() {
		regular1M, regular1MErr = noisypull.RandomRegularTopology(1_000_000, 8, 11)
	})
	return regular1M, regular1MErr
}

// graphRoundsCase runs voter dynamics where every agent observes its own
// 8-regular neighborhood, so the per-agent law collapses to the
// neighborhood display mixture pushed through the effective channel (one
// uniform per agent).
func graphRoundsCase(b *testing.B) {
	b.Helper()
	g, err := regular1MGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	fixedRoundsCaseOpts(1_000_000, 8, 8, noisypull.BackendExact, noisypull.VoterBaseline,
		func(b *testing.B, cfg *noisypull.Config) { cfg.Topology = g })(b)
}

// kOpinionRoundsCase runs SSF over the 4-symbol display alphabet, where the
// kernel draws one cached Multinomial(h, q) per agent per round. The
// explicit update quota keeps the workload identical across machines (the
// Eq. (30) default depends only on n and δ but is pinned here for clarity).
func kOpinionRoundsCase(b *testing.B) {
	b.Helper()
	fixedRoundsCaseOpts(1_000_000, 8, 8, noisypull.BackendAggregate,
		noisypull.NewSelfStabilizing(noisypull.WithSSFUpdateQuota(96)),
		func(b *testing.B, cfg *noisypull.Config) {
			nm, err := noisypull.UniformNoise(4, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Noise = nm
		})(b)
}

// faultedRoundsCase runs voter dynamics under a corrupt → crash → churn
// schedule that lands mid-measurement, so the masked-lane crash handling
// and the single-threaded corruption/churn application are both inside the
// timed region.
func faultedRoundsCase(b *testing.B) {
	b.Helper()
	fixedRoundsCaseOpts(1_000_000, 8, 12, noisypull.BackendAggregate, noisypull.VoterBaseline,
		func(b *testing.B, cfg *noisypull.Config) {
			cfg.Faults = &noisypull.FaultSchedule{Events: []noisypull.FaultEvent{
				{Kind: noisypull.FaultCorrupt, Round: 3, Fraction: 0.2, Corruption: noisypull.CorruptRandom},
				{Kind: noisypull.FaultCrash, Round: 5, Fraction: 0.3, Duration: 4},
				{Kind: noisypull.FaultChurn, Round: 8, Fraction: 0.15, Corruption: noisypull.CorruptWrongConsensus},
			}}
		})(b)
}

// ScaleMajority100MCounts runs h-majority with 1% zealots at n = 10⁸ to
// full convergence on the counts backend — two orders of magnitude beyond
// what the per-agent engine reaches, at microseconds per round.
func ScaleMajority100MCounts(b *testing.B) {
	const n = 100_000_000
	nm, err := noisypull.UniformNoise(2, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := noisypull.Run(noisypull.Config{
			N: n, H: 64, Sources1: n / 100,
			Noise:           nm,
			Protocol:        noisypull.MajorityBaseline,
			Seed:            uint64(i + 1),
			Backend:         noisypull.BackendCounts,
			MaxRounds:       2000,
			StabilityWindow: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("n=10⁸ run did not converge: %d/%d after %d rounds", res.FinalCorrect, n, res.Rounds)
		}
		b.ReportMetric(float64(res.Rounds), "rounds/op")
	}
}
