package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"time"

	"noisypull"
	"noisypull/internal/rng"
	"noisypull/internal/service"
)

// engine-grid drives the engine directly: one caller, one reusable runner
// per regime, Reset per seed. Every regime takes the vectorized path and
// runs on the chunked worker pool with Workers=2, so the sim, rng,
// protocol, graph and faults layers do nearly all the work.
const (
	engineH       = 8
	engineDegree  = 8
	engineRounds  = 4 // MaxRounds = StabilityWindow: every trial runs exactly this many rounds
	faultedRounds = 6
	// graphSeed fixes the shared graph, as internal/bench does: building a
	// random regular graph takes seconds and its time depends on the seed,
	// so a per-run graph would make setup_s vary with the workload seed.
	graphSeed = 11
)

// regime is one cell of the grid.
type regime struct {
	name   string
	cfg    noisypull.Config // Seed and Workers are set per use
	rounds int
}

// engineRegimes builds the grid at population n. Sources are 1% of n, so no
// population is all-correct from round 1 and the stability window equal to
// the round budget keeps every trial running to MaxRounds, as in the
// fixed-round cases of internal/bench.
func engineRegimes(n int, g *noisypull.Topology) ([]regime, error) {
	nm2, err := noisypull.UniformNoise(2, 0.1)
	if err != nil {
		return nil, err
	}
	nm4, err := noisypull.UniformNoise(4, 0.1)
	if err != nil {
		return nil, err
	}
	base := func(p noisypull.Protocol, nm *noisypull.NoiseMatrix, rounds int) noisypull.Config {
		return noisypull.Config{
			N: n, H: engineH, Sources1: max(1, n/100),
			Noise: nm, Protocol: p, Backend: noisypull.BackendAggregate,
			MaxRounds: rounds, StabilityWindow: rounds,
		}
	}
	graph := base(noisypull.VoterBaseline, nm2, engineRounds)
	graph.Topology = g
	graph.Backend = noisypull.BackendExact
	faulted := base(noisypull.VoterBaseline, nm2, faultedRounds)
	faulted.Faults = &noisypull.FaultSchedule{Events: []noisypull.FaultEvent{
		{Kind: noisypull.FaultCorrupt, Round: 2, Fraction: 0.2, Corruption: noisypull.CorruptRandom},
		{Kind: noisypull.FaultCrash, Round: 3, Fraction: 0.3, Duration: 2},
		{Kind: noisypull.FaultChurn, Round: 4, Fraction: 0.15, Corruption: noisypull.CorruptWrongConsensus},
	}}
	return []regime{
		{"sf_bin", base(noisypull.NewSourceFilter(), nm2, engineRounds), engineRounds},
		{"majority_bin", base(noisypull.MajorityBaseline, nm2, engineRounds), engineRounds},
		{"ssf_k4", base(noisypull.NewSelfStabilizing(noisypull.WithSSFUpdateQuota(96)), nm4, engineRounds), engineRounds},
		{"voter_graph", graph, engineRounds},
		{"voter_faulted", faulted, faultedRounds},
	}, nil
}

// engineRig holds one runner per regime.
type engineRig struct {
	regimes []regime
	runners []*noisypull.Runner
}

func (g *engineRig) close() {
	for _, r := range g.runners {
		r.Close()
	}
	g.runners = nil
}

// setupEngine builds the shared graph unless one is given, then one runner
// per regime with the given worker count, and runs one warm-up trial on
// each.
func setupEngine(ctx context.Context, o options, workers int, topo *noisypull.Topology, tr *tracer) (*engineRig, *noisypull.Topology, error) {
	if topo == nil {
		t0 := time.Now()
		var err error
		if topo, err = noisypull.RandomRegularTopology(o.EngineN, engineDegree, graphSeed); err != nil {
			return nil, nil, fmt.Errorf("build graph: %w", err)
		}
		tr.add(0, "graph.build", "", t0, time.Now())
	}
	regs, err := engineRegimes(o.EngineN, topo)
	if err != nil {
		return nil, nil, err
	}
	rig := &engineRig{regimes: regs}
	for i, rg := range regs {
		cfg := rg.cfg
		cfg.Workers = workers
		cfg.Seed = uint64(i + 1)
		t0 := time.Now()
		r, err := noisypull.NewRunner(cfg)
		if err != nil {
			rig.close()
			return nil, nil, fmt.Errorf("%s: new runner: %w", rg.name, err)
		}
		tr.add(0, "sim.new_runner", rg.name, t0, time.Now())
		rig.runners = append(rig.runners, r)
		if _, err := r.RunContext(ctx); err != nil {
			rig.close()
			return nil, nil, fmt.Errorf("%s: warm-up trial: %w", rg.name, err)
		}
	}
	return rig, topo, nil
}

// trialRec is one completed trial, kept for the output check.
type trialRec struct {
	regime int
	res    service.SeedResult
}

// enginePass is what one timed pass over the grid measured.
type enginePass struct {
	ws          windowStats
	trials      []trialRec
	latencies   []float64 // Reset+Run per trial, ms
	agentRounds float64

	// Per regime: allocations (when counted) and, when traced, round gaps
	// in ns per agent.
	allocs     []heapAllocs
	regTrials  []int
	roundGaps  [][]float64
	faultGapUS []float64
	resetUS    []float64
}

// pass runs whole grid passes until seconds have elapsed. With countAllocs
// it reads exact heap allocation counts around every trial; with a tracer
// it records spans and the gaps between OnRound callbacks.
func (g *engineRig) pass(ctx context.Context, seconds float64, seeds *rand.Rand, tr *tracer, countAllocs bool, rep *report) (*enginePass, error) {
	nr := len(g.regimes)
	p := &enginePass{allocs: make([]heapAllocs, nr), regTrials: make([]int, nr), roundGaps: make([][]float64, nr)}
	win := openWindow()
	deadline := win.start.Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		for i, rg := range g.regimes {
			if err := g.trial(ctx, i, rg, fmt.Sprintf("%s/%d", rg.name, k), seeds.Uint64(), p, tr, countAllocs, rep); err != nil {
				return nil, err
			}
		}
	}
	p.ws = win.close()
	return p, nil
}

func (g *engineRig) trial(ctx context.Context, i int, rg regime, id string, seed uint64, p *enginePass, tr *tracer, countAllocs bool, rep *report) error {
	r := g.runners[i]
	n := float64(rg.cfg.N)
	runID, trialID := tr.id(), tr.id()
	if tr != nil {
		last := time.Time{}
		faulted := false
		r.SetOnFault(func(noisypull.FaultRecord) { faulted = true })
		r.SetOnRound(func(round, correct int) {
			now := time.Now()
			if last.IsZero() {
				last, faulted = now, false // the first round's gap includes run start-up; skip it
				return
			}
			gap := now.Sub(last)
			name := "sim.round"
			if faulted {
				name = "sim.fault_round"
				p.faultGapUS = append(p.faultGapUS, float64(gap.Nanoseconds())/1e3)
				faulted = false
			}
			p.roundGaps[i] = append(p.roundGaps[i], float64(gap.Nanoseconds())/n)
			tr.add(runID, name, id, last, now)
			last = now
		})
	}
	var before heapAllocs
	if countAllocs {
		before = readAllocs()
	}
	rep.Attempted++
	t0 := time.Now()
	r.Reset(seed)
	t1 := time.Now()
	res, err := r.RunContext(ctx)
	t2 := time.Now()
	if countAllocs {
		d := readAllocs().sub(before)
		p.allocs[i].objects += d.objects
		p.allocs[i].bytes += d.bytes
	}
	if tr != nil {
		r.SetOnRound(nil)
		r.SetOnFault(nil)
		tr.add(trialID, "sim.reset", id, t0, t1)
		tr.record(runID, trialID, "sim.run", id, t1, t2)
		tr.record(trialID, 0, "sim.trial", id, t0, t2)
		p.resetUS = append(p.resetUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rep.fail(1, "%s seed %d: %v", rg.name, seed, err)
		return nil
	}
	if res.Rounds != rg.rounds {
		rep.fail(1, "%s seed %d ran %d rounds, want exactly %d", rg.name, seed, res.Rounds, rg.rounds)
		return nil
	}
	p.regTrials[i]++
	p.trials = append(p.trials, trialRec{regime: i, res: service.MakeSeedResult(seed, res)})
	p.latencies = append(p.latencies, ms(t2.Sub(t0)))
	p.agentRounds += n * float64(res.Rounds)
	return nil
}

// verifyEngine re-runs one sampled trial per regime through noisypull.Run
// on a fresh runner and requires the identical result: a reused, Reset
// runner must reproduce a fresh one bit for bit.
func verifyEngine(ctx context.Context, regs []regime, trials []trialRec, pick *rand.Rand, rep *report) error {
	byRegime := make([][]trialRec, len(regs))
	for _, t := range trials {
		byRegime[t.regime] = append(byRegime[t.regime], t)
	}
	for i, rg := range regs {
		if len(byRegime[i]) == 0 {
			continue
		}
		t := byRegime[i][pick.IntN(len(byRegime[i]))]
		cfg := rg.cfg
		cfg.Seed = t.res.Seed
		cfg.Workers = gomaxprocs
		res, err := noisypull.RunContext(ctx, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rep.fail(1, "%s seed %d: check run: %v", rg.name, t.res.Seed, err)
			continue
		}
		if want := service.MakeSeedResult(t.res.Seed, res); !reflect.DeepEqual(want, t.res) {
			rep.fail(1, "%s seed %d: reused runner gave %+v, a fresh run %+v", rg.name, t.res.Seed, t.res, want)
		}
	}
	return nil
}

func runEngineGrid(ctx context.Context, o options, rep *report) error {
	seeds := rand.New(rand.NewPCG(o.Seed, 1))
	if o.Trace {
		return traceEngineGrid(ctx, o, seeds, rep)
	}
	rig, err := repeatSetup(rep, o.setupReps(3), func() (*engineRig, error) {
		rig, _, err := setupEngine(ctx, o, gomaxprocs, nil, nil)
		return rig, err
	}, (*engineRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	p, err := rig.pass(ctx, o.Seconds, seeds, nil, false, rep)
	if err != nil {
		return err
	}
	if err := rep.endToEndMetrics(p.ws, len(p.trials), p.agentRounds, p.latencies); err != nil {
		return err
	}
	return verifyEngine(ctx, rig.regimes, p.trials, seeds, rep)
}

// traceEngineGrid splits the window in three: an untraced pass at
// Workers=2 (the tracing-overhead baseline, with exact allocation counts
// per regime), a traced pass at Workers=2, and a traced pass at Workers=1,
// the single-threaded baseline for parallel efficiency.
func traceEngineGrid(ctx context.Context, o options, seeds *rand.Rand, rep *report) error {
	tr := newTracer(true)
	third := o.Seconds / 3
	rig, topo, err := setupEngine(ctx, o, gomaxprocs, nil, tr)
	if err != nil {
		return err
	}
	plain, err := rig.pass(ctx, third, seeds, nil, true, rep)
	if err != nil {
		rig.close()
		return err
	}
	traced, err := rig.pass(ctx, third, seeds, tr, false, rep)
	rig.close()
	if err != nil {
		return err
	}
	runtime.GC()
	rig1, _, err := setupEngine(ctx, o, 1, topo, tr)
	if err != nil {
		return err
	}
	single, err := rig1.pass(ctx, third, seeds, tr, false, rep)
	rig1.close()
	if err != nil {
		return err
	}

	n := float64(len(plain.trials))
	rep.allocMetrics(plain.ws, len(plain.trials))
	for i, name := range regimeNames {
		if c := float64(plain.regTrials[i]); c > 0 {
			rep.Metrics["sim.allocs_per_trial."+name] = float64(plain.allocs[i].objects) / c
			rep.Metrics["sim.bytes_per_trial."+name] = float64(plain.allocs[i].bytes) / c
		}
		rep.p50("sim.ns_per_agent_round."+name, append(traced.roundGaps[i], single.roundGaps[i]...))
	}
	rep.p50("sim.fault_round_us", append(traced.faultGapUS, single.faultGapUS...))
	rep.p50("sim.reset_us", append(traced.resetUS, single.resetUS...))
	rep.p50("sim.new_runner_ms", tr.durationsMS("sim.new_runner"))
	if g := tr.durationsMS("graph.build"); len(g) > 0 {
		rep.Metrics["graph.build_s"] = g[0] / 1e3
	}
	twoRate := traced.agentRounds / traced.ws.elapsed.Seconds()
	oneRate := single.agentRounds / single.ws.elapsed.Seconds()
	rep.Metrics["sim.parallel_efficiency"] = twoRate / (gomaxprocs * oneRate)
	rep.Metrics["trace.overhead_frac"] = (n/plain.ws.elapsed.Seconds())/(float64(len(traced.trials))/traced.ws.elapsed.Seconds()) - 1
	rngMetrics(rep, o.Seed)

	if err := finishTrace(o, tr, rep, ""); err != nil {
		return err
	}
	all := append(append(plain.trials, traced.trials...), single.trials...)
	return verifyEngine(ctx, rig.regimes, all, seeds, rep)
}

// sink keeps the sampler loops' results live.
var sink int

// rngMetrics times each public sampler alone at the engine-grid shapes:
// Binomial(h=8, q) draws for the binary regimes, joint-alias
// Multinomial(h=8, k=4) count vectors for ssf_k4, and a 4-outcome alias.
// Each figure is the median over five runs of ns per draw.
func rngMetrics(rep *report, seed uint64) {
	const draws, runs = 1 << 20, 5
	r := rng.New(seed)
	probs := []float64{0.55, 0.25, 0.12, 0.08}
	timeIt := func(name string, draw func()) {
		xs := make([]float64, runs)
		for k := range xs {
			t0 := time.Now()
			for j := 0; j < draws; j++ {
				draw()
			}
			xs[k] = float64(time.Since(t0).Nanoseconds()) / draws
		}
		rep.p50(name, xs)
	}
	var bd rng.BinomialDist
	bd.Init(engineH, 0.1+0.8*0.01)
	timeIt("rng.binomial_ns", func() { sink += bd.Sample(r) })
	var md rng.MultinomialDist
	md.Init(engineH, probs)
	md.PrecomputeJoint(1 << 16)
	out := make([]int, len(probs))
	timeIt("rng.multinomial_joint_ns", func() { md.SampleJoint(r, out); sink += out[0] })
	if al, err := rng.NewAlias(probs); err == nil {
		timeIt("rng.alias_ns", func() { sink += al.Sample(r) })
	}
}

// finishTrace writes the spans to the scratch directory and adds the
// per-layer self times to the run context; pass names a second traced pass
// of the same run ("" for the main one).
func finishTrace(o options, tr *tracer, rep *report, pass string) error {
	path := fmt.Sprintf("%s/trace-%s%s-%d.json", o.Scratch, o.Workload, pass, o.Seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.Context["trace_file"+pass] = path
	rep.Context["self_ms"+pass] = tr.selfTimes()
	return nil
}
