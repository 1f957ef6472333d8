package noisypull_test

import (
	"errors"
	"math"
	"testing"

	"noisypull"
)

func TestUniformNoiseFacade(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Alphabet() != 2 || nm.At(0, 1) != 0.2 {
		t.Fatalf("noise = \n%v", nm)
	}
	if _, err := noisypull.UniformNoise(1, 0.2); err == nil {
		t.Fatal("bad alphabet accepted")
	}
}

func TestF(t *testing.T) {
	if got := noisypull.F(0.1, 2); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("F(0.1, 2) = %v", got)
	}
}

func TestRunRequiresNoiseAndProtocol(t *testing.T) {
	if _, err := noisypull.Run(noisypull.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	nm, err := noisypull.UniformNoise(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noisypull.Run(noisypull.Config{Noise: nm}); err == nil {
		t.Fatal("missing protocol accepted")
	}
}

func TestRunSourceFilterQuickstart(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := noisypull.Run(noisypull.Config{
		N: 300, H: 300, Sources1: 1,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("quickstart run did not converge: %+v", res)
	}
	if res.CorrectOpinion != 1 {
		t.Fatalf("correct opinion = %d", res.CorrectOpinion)
	}
}

// TestRunAutoReduction is the facade's key behavior: a non-uniform channel
// is automatically reduced via Theorem 8 and the protocol still converges.
func TestRunAutoReduction(t *testing.T) {
	nm, err := noisypull.AsymmetricNoise(0.08, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	res, err := noisypull.Run(noisypull.Config{
		N: 300, H: 64, Sources1: 1,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("auto-reduced run did not converge: %+v", res)
	}
}

func TestRunRejectsIrreducibleNoise(t *testing.T) {
	// A non-uniform channel whose upper-bound level reaches 1/2 cannot be
	// reduced by Theorem 8.
	nm, err := noisypull.AsymmetricNoise(0.6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = noisypull.Run(noisypull.Config{
		N: 100, H: 10, Sources1: 1,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
	})
	if !errors.Is(err, noisypull.ErrNotReducible) {
		t.Fatalf("err = %v, want ErrNotReducible", err)
	}
}

func TestRunRejectsOutOfDomainUniformNoise(t *testing.T) {
	// The information-less uniform channel is valid for the model but
	// outside SF's domain (delta must be < 1/2): Run must error, not panic.
	nm, err := noisypull.UniformNoise(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noisypull.Run(noisypull.Config{
		N: 100, H: 10, Sources1: 1,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
	}); err == nil {
		t.Fatal("out-of-domain noise accepted")
	}
}

func TestRunSelfStabilizingDefaults(t *testing.T) {
	nm, err := noisypull.UniformNoise(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := noisypull.Run(noisypull.Config{
		N: 200, H: 32, Sources1: 1,
		Noise:      nm,
		Protocol:   noisypull.NewSelfStabilizing(),
		Seed:       3,
		Corruption: noisypull.CorruptWrongConsensus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SSF facade run did not converge: %+v", res)
	}
	if res.FirstAllCorrect == 0 {
		t.Fatal("no recovery round recorded")
	}
}

func TestCheckReportsProtocolDomain(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noisypull.Config{
		N: 100, H: 10, Sources1: 1,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// SSF cannot run on a 2-symbol alphabet.
	cfg.Protocol = noisypull.NewSelfStabilizing()
	if err := cfg.Validate(); err == nil {
		t.Fatal("alphabet mismatch passed Validate")
	}
}

func TestBoundsFacade(t *testing.T) {
	p := noisypull.BoundParams{N: 1024, H: 8, Alphabet: 2, Delta: 0.2, Bias: 1, Sources: 1}
	lb, err := noisypull.LowerBound(p)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := noisypull.SFUpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || ub <= lb {
		t.Fatalf("bounds: lb=%v ub=%v", lb, ub)
	}
	p.Alphabet = 4
	p.Delta = 0.1
	ssf, err := noisypull.SSFUpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if ssf <= 0 {
		t.Fatalf("ssf bound = %v", ssf)
	}
}

func TestExperimentsFacade(t *testing.T) {
	all := noisypull.Experiments()
	if len(all) != 20 {
		t.Fatalf("Experiments() returned %d", len(all))
	}
	e, ok := noisypull.ExperimentByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	art, err := e.Run(noisypull.ExperimentOptions{Scale: noisypull.ScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	if art.ID != "E1" || len(art.Series) == 0 {
		t.Fatalf("artifact = %+v", art)
	}
}

func TestBaselinesExposed(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := noisypull.Run(noisypull.Config{
		N: 100, H: 8, Sources1: 1,
		Noise:     nm,
		Protocol:  noisypull.VoterBaseline,
		Seed:      4,
		MaxRounds: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 && !res.Converged {
		t.Fatalf("voter baseline result = %+v", res)
	}
}

func TestDeterminismThroughFacade(t *testing.T) {
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *noisypull.Result {
		res, err := noisypull.Run(noisypull.Config{
			N: 200, H: 16, Sources1: 2, Sources0: 1,
			Noise:        nm,
			Protocol:     noisypull.NewSourceFilter(),
			Seed:         99,
			Workers:      workers,
			TrackHistory: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(4)
	if a.Rounds != b.Rounds || a.FinalCorrect != b.FinalCorrect {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("history diverges at %d", i)
		}
	}
}

func TestNoiseEstimatorFacade(t *testing.T) {
	e, err := noisypull.NewNoiseEstimator(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Record(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.Record(1, i%2); err != nil {
			t.Fatal(err)
		}
	}
	m, err := e.Estimate(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 0.5 {
		t.Fatalf("estimated matrix = \n%v", m)
	}
}

func TestAnalysisFacade(t *testing.T) {
	p := noisypull.AnalysisParams{N: 500, S1: 1, S0: 0, Delta: 0.2, M: 4000}
	sf, err := noisypull.PredictSFWeakOpinion(p)
	if err != nil {
		t.Fatal(err)
	}
	if sf <= 0.5 || sf >= 1 {
		t.Fatalf("PredictSFWeakOpinion = %v", sf)
	}
	p.Delta = 0.1
	ssf, err := noisypull.PredictSSFWeakOpinion(p)
	if err != nil {
		t.Fatal(err)
	}
	if ssf <= 0.5 || ssf >= 1 {
		t.Fatalf("PredictSSFWeakOpinion = %v", ssf)
	}
	traj := noisypull.BoostTrajectory(0.55, 278, 0.2, 8)
	if len(traj) != 9 || traj[8] < 0.99 {
		t.Fatalf("BoostTrajectory = %v", traj)
	}
}

func TestRunAsyncSSF(t *testing.T) {
	nm, err := noisypull.UniformNoise(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := noisypull.RunAsync(noisypull.Config{
		N: 150, H: 32, Sources1: 1,
		Noise:      nm,
		Protocol:   noisypull.NewSelfStabilizing(),
		Seed:       6,
		Corruption: noisypull.CorruptWrongConsensus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async SSF did not converge: %+v", res)
	}
}

func TestTopologyFacade(t *testing.T) {
	ring, err := noisypull.RingTopology(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ring.N() != 100 || ring.Degree(0) != 6 {
		t.Fatalf("ring shape: n=%d deg=%d", ring.N(), ring.Degree(0))
	}
	reg, err := noisypull.RandomRegularTopology(100, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := noisypull.UniformNoise(2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// SF on a random regular graph: neighborhoods are population-
	// representative, so the protocol still converges. Five sources keep
	// the outcome robust to the draw sequence (with a single source at
	// this noise level, roughly a third of seeds fail on either the
	// scalar or the vectorized path).
	res, err := noisypull.Run(noisypull.Config{
		N: 100, H: 6, Sources1: 5,
		Noise:    nm,
		Protocol: noisypull.NewSourceFilter(),
		Seed:     2,
		Topology: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SF on 6-regular graph did not converge: %+v", res)
	}
	if _, err := noisypull.ErdosRenyiTopology(50, 0.2, 1); err != nil {
		t.Fatal(err)
	}
}

// lazyVoter is a countable protocol written against the facade alone, as
// code outside this module writes one: a non-source keeps its opinion with
// probability 1/2 and otherwise adopts one observation. Classes are 0/1
// for non-sources by opinion and 2/3 for sources by preference. Its kernel
// comes from VoterBaseline; the counts backend never builds it.
type lazyVoter struct{ noisypull.Protocol }

func (lazyVoter) NumStates(noisypull.Env) int          { return 4 }
func (lazyVoter) DisplayOf(_ noisypull.Env, s int) int { return s & 1 }
func (lazyVoter) OpinionOf(_ noisypull.Env, s int) int { return s & 1 }
func (lazyVoter) isSource(s int) bool                  { return s >= 2 }
func (lazyVoter) identity(s int, row []float64)        { clear(row); row[s] = 1 }
func (lazyVoter) InitialCounts(env noisypull.Env, s1, s0 int, counts []int) {
	counts[0], counts[2], counts[3] = env.N-s1-s0, s0, s1
}

func (p lazyVoter) TransitionRow(_ noisypull.Env, s int, obs, row []float64) {
	p.identity(s, row)
	if !p.isSource(s) {
		row[1] = float64(s)/2 + obs[1]/2
		row[0] = 1 - row[1]
	}
}

func (p lazyVoter) CorruptRow(_ noisypull.Env, s int, mode noisypull.CorruptionMode, wrong int, row []float64) {
	p.identity(s, row)
	switch {
	case p.isSource(s):
	case mode == noisypull.CorruptWrongConsensus:
		row[s], row[wrong] = 0, 1
	case mode == noisypull.CorruptRandom:
		row[0], row[1] = 0.5, 0.5
	}
}

// TestCountableProtocolThroughFacade: every parameter type of
// CountableProtocol is re-exported, so a protocol outside the module runs
// on the counts backend, round-0 corruption included, deterministically in
// the seed.
func TestCountableProtocolThroughFacade(t *testing.T) {
	var _ noisypull.CountableProtocol = lazyVoter{}
	nm, err := noisypull.UniformNoise(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []noisypull.CorruptionMode{noisypull.CorruptWrongConsensus, noisypull.CorruptRandom} {
		cfg := noisypull.Config{
			N: 1000, H: 1, Sources1: 20, Noise: nm,
			Protocol:   lazyVoter{noisypull.VoterBaseline},
			Seed:       5,
			Backend:    noisypull.BackendCounts,
			MaxRounds:  30,
			Corruption: mode,
		}
		a, err := noisypull.Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		b, err := noisypull.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rounds != 30 || a.FinalCorrect < cfg.Sources1 || a.FinalCorrect != b.FinalCorrect {
			t.Fatalf("%v: runs gave %+v and %+v", mode, a, b)
		}
	}
}
