// Package noisypull is a library for fast and robust information spreading
// in the noisy PULL(h) model, implementing the protocols, noise-reduction
// machinery, and evaluation harness of
//
//	D'Archivio, Korman, Natale, Vacus,
//	"Fast and Robust Information Spreading in the Noisy PULL Model"
//	(brief announcement at PODC 2025; full version arXiv:2411.02560).
//
// # The model
//
// A population of n agents communicates in synchronous rounds. Each round,
// every agent displays a message from a finite alphabet Σ and passively
// receives noisy observations of the messages displayed by h agents sampled
// uniformly at random with replacement: a stochastic noise matrix N maps
// each displayed symbol to an observed symbol. A few agents — sources —
// know which of the two opinions {0, 1} is correct (or at least hold a
// preference); the goal is for the entire population, including sources
// whose preference is wrong, to converge on the plurality preference of the
// sources as fast as possible.
//
// # The protocols
//
// NewSourceFilter returns the SF protocol (Algorithm 1): two "listening"
// phases in which non-sources display neutral values and privately count
// observations, followed by a majority-boosting phase. With h = n and
// constant noise it spreads a single source's bit in O(log n) rounds —
// exponentially faster than the Ω(n) bound for pairwise interaction — and
// in general matches the Theorem 3 lower bound up to a log factor.
//
// NewSelfStabilizing returns the SSF protocol (Algorithm 2): a 2-bit
// message scheme that needs no synchronized start and recovers from
// arbitrary corruption of agent memories, opinions, and clocks.
//
// Package-level Run executes any protocol in the simulated noisy PULL(h)
// model, and RunAsync under an asynchronous activation schedule. When the
// supplied noise matrix is not δ-uniform, the engine automatically applies
// the artificial-noise reduction of Theorem 8 (agents re-randomize each
// received message through P = N⁻¹·T so the effective channel becomes
// f(δ)-uniform).
//
// Config is the engine's configuration type, and the engine resolves it
// once — channel, environment and stopping rule — so one Config is one run
// through Run, NewRunner, RunBatch and RunAsync alike. A zero
// StabilityWindow takes the window of a protocol that sizes its own runs
// (SSF: consensus must survive two memory flushes), and a zero MaxRounds
// with it that protocol's cap. Config.Validate checks a configuration,
// protocol applicability included, without running it.
//
// # Quick start
//
//	nm, _ := noisypull.UniformNoise(2, 0.2)         // 20% symmetric noise
//	res, err := noisypull.Run(noisypull.Config{
//		N:        1000,                             // population
//		H:        1000,                             // each agent observes everyone
//		Sources1: 1,                                // one informed agent
//		Noise:    nm,
//		Protocol: noisypull.NewSourceFilter(),
//		Seed:     1,
//	})
//	// res.Converged, res.FirstAllCorrect, res.Rounds ...
//
// See examples/ for runnable programs (quickstart, the crazy-ants
// cooperative-transport scenario, self-stabilization, conflicting sources,
// house hunting, and topologies), and internal/experiment for the harness
// that regenerates every figure and theorem-claim of the paper (run
// cmd/experiments).
package noisypull
