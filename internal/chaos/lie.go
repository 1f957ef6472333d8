package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"noisypull/internal/rng"
	"noisypull/internal/service"
)

// lieStreamID salts the liar's per-delivery derived streams independently
// of the wire-fault timeline, so `-chaos-spec seed=3` and `-lie-spec
// seed=3` on the same node stay uncorrelated.
const lieStreamID = 0x6c696172_5eed0002 // "liar"

// LieSpec declares how a Byzantine worker lies about its computed results.
// Unlike package chaos's wire faults — which the fleet's body HMAC catches —
// a liar mutates results *before* attesting and tagging them, so every
// envelope it sends is internally consistent; only the coordinator's digest
// self-check and quorum comparison can expose it. Zero-valued fields
// disable their lie class.
type LieSpec struct {
	// Seed keys the deterministic lie timeline.
	Seed uint64
	// Flip is the per-result probability the payload is altered (the
	// round count is perturbed) before the worker honestly attests the
	// altered payload. Undetectable by any self-check; only quorum
	// disagreement catches it.
	Flip float64
	// Skew is the per-delivery probability two adjacent results swap
	// payloads while keeping their seed labels — a subtler
	// right-answers-wrong-seeds lie.
	Skew float64
	// StaleFP is the per-delivery probability the worker attests its
	// results under a doctored fingerprint, as if it ran a stale config.
	// The coordinator's digest recomputation catches this immediately.
	StaleFP float64
}

// ParseLieSpec parses the -lie-spec flag syntax: comma-separated k=v
// pairs, e.g. "seed=3,flip=1,skew=0.5,stalefp=0.2". An empty string
// returns (nil, nil) — the worker is honest.
func ParseLieSpec(s string) (*LieSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &LieSpec{Seed: 1}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("lie: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "flip":
			spec.Flip, err = parseProb(v)
		case "skew":
			spec.Skew, err = parseProb(v)
		case "stalefp":
			spec.StaleFP, err = parseProb(v)
		default:
			return nil, fmt.Errorf("lie: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("lie: bad %s: %w", k, err)
		}
	}
	return spec, nil
}

// String renders the spec back in flag syntax (for startup logs).
func (s *LieSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	if s.Flip > 0 {
		fmt.Fprintf(&b, ",flip=%v", s.Flip)
	}
	if s.Skew > 0 {
		fmt.Fprintf(&b, ",skew=%v", s.Skew)
	}
	if s.StaleFP > 0 {
		fmt.Fprintf(&b, ",stalefp=%v", s.StaleFP)
	}
	return b.String()
}

// Liar applies a LieSpec to result deliveries. A nil *Liar is an honest
// no-op. Like Injector, the lie timeline is a pure function of (spec seed,
// delivery ordinal), so a Byzantine soak that slipped a lie past the fleet
// reproduces exactly under the same spec.
type Liar struct {
	spec LieSpec
	seq  atomic.Uint64

	flipped atomic.Int64
	skewed  atomic.Int64
	staled  atomic.Int64
}

// NewLiar builds a liar for spec. A nil spec yields a nil liar.
func NewLiar(spec *LieSpec) *Liar {
	if spec == nil {
		return nil
	}
	return &Liar{spec: *spec}
}

// Apply mutates one delivery's results per the spec and returns the
// (possibly doctored) results and the fingerprint to attest them under.
// The signature matches fleet.WorkerConfig.Lie. Nil liar: identity.
func (li *Liar) Apply(results []service.SeedResult, fingerprint string) ([]service.SeedResult, string) {
	if li == nil || len(results) == 0 {
		return results, fingerprint
	}
	r := rng.New(rng.DeriveSeed(rng.DeriveSeed(li.spec.Seed, lieStreamID), li.seq.Add(1)-1))
	// Draws happen in a fixed order (per-result flips, skew, stalefp) so
	// the timeline is stable for a given spec.
	out := make([]service.SeedResult, len(results))
	copy(out, results)
	for i := range out {
		if r.Bernoulli(li.spec.Flip) {
			out[i].Rounds += 1 + r.Intn(7)
			out[i].Converged = !out[i].Converged
			li.flipped.Add(1)
		}
	}
	if len(out) >= 2 && r.Bernoulli(li.spec.Skew) {
		i := r.Intn(len(out) - 1)
		out[i], out[i+1] = out[i+1], out[i]
		out[i].Seed, out[i+1].Seed = out[i+1].Seed, out[i].Seed
		li.skewed.Add(1)
	}
	if r.Bernoulli(li.spec.StaleFP) {
		sum := sha256.Sum256([]byte("stale:" + fingerprint))
		doctored := hex.EncodeToString(sum[:])
		if len(fingerprint) > 0 && len(doctored) > len(fingerprint) {
			doctored = doctored[:len(fingerprint)]
		}
		fingerprint = doctored
		li.staled.Add(1)
	}
	return out, fingerprint
}

// Lied returns the total number of lies told so far (tests use it to
// prove a Byzantine run actually lied).
func (li *Liar) Lied() int64 {
	if li == nil {
		return 0
	}
	return li.flipped.Load() + li.skewed.Load() + li.staled.Load()
}

// WriteMetrics emits the liar's counters in Prometheus text format
// (mounted on the lying worker's own /metrics, where the fault injection
// is observable without trusting the coordinator's verdict). Nil liar: no
// output.
func (li *Liar) WriteMetrics(w io.Writer) error {
	if li == nil {
		return nil
	}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP simd_chaos_lies_total Byzantine result mutations applied, by class.\n")
	p("# TYPE simd_chaos_lies_total counter\n")
	p("simd_chaos_lies_total{kind=\"flip\"} %d\n", li.flipped.Load())
	p("simd_chaos_lies_total{kind=\"skew\"} %d\n", li.skewed.Load())
	p("simd_chaos_lies_total{kind=\"stalefp\"} %d\n", li.staled.Load())
	return err
}
