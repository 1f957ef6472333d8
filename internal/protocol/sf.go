package protocol

import (
	"fmt"
	"math"

	"noisypull/internal/sim"
)

// SF is the Source Filter protocol (Algorithm 1, Theorem 4).
//
// The execution is divided into three phases driven by a shared round
// counter (simultaneous wake-up):
//
//   - Phase 0 (rounds 1..T, T = ⌈m/h⌉): sources display their preference,
//     non-sources display 0; every agent counts observed 1-messages.
//   - Phase 1 (rounds T+1..2T): sources display their preference,
//     non-sources display 1; every agent counts observed 0-messages.
//     At its end each agent forms its weak opinion
//     Ŷ = 1{Counter₁ > Counter₀} (ties broken by a fair coin).
//   - Majority Boosting (L = ⌈10·ln n⌉ sub-phases collecting ≥ w =
//     ⌈boostWindow/(1−2δ)²⌉ messages each, plus one final sub-phase
//     collecting ≥ m messages): every agent displays its current opinion
//     and replaces it by the majority of the messages gathered in the
//     sub-phase.
//
// SF implements sim.Finite; its total duration is 3·⌈m/h⌉ + L·⌈w/h⌉ rounds.
type SF struct {
	c1            float64
	mOverride     int
	boostWindow   float64
	boostSubPhase float64
	alternating   bool
}

// SFOption customizes SF.
type SFOption func(*SF)

// WithSFConstant sets the constant c1 of Eq. (19).
func WithSFConstant(c1 float64) SFOption {
	return func(p *SF) { p.c1 = c1 }
}

// WithSFSampleBudget overrides the per-phase sample budget m directly,
// bypassing Eq. (19). Useful for ablations.
func WithSFSampleBudget(m int) SFOption {
	return func(p *SF) { p.mOverride = m }
}

// WithSFBoostWindow sets the numerator of the per-sub-phase message quota
// w = window/(1−2δ)² (the paper's 100).
func WithSFBoostWindow(window float64) SFOption {
	return func(p *SF) { p.boostWindow = window }
}

// WithSFBoostSubPhases sets the multiplier k in L = ⌈k·ln n⌉ (the paper's
// 10).
func WithSFBoostSubPhases(k float64) SFOption {
	return func(p *SF) { p.boostSubPhase = k }
}

// WithSFAlternating switches the listening phases to the variant discussed
// in the paper's Section 2.1 remark: instead of displaying 0 for T rounds
// and then 1 for T rounds, each non-source flips a fair coin for its first
// message and then alternates deterministically, while every agent counts
// both observed symbols over the whole 2T-round listening window. The
// population background is symmetric in every round, so the count
// difference is biased toward the sources' plurality preference exactly as
// in the standard schedule.
func WithSFAlternating() SFOption {
	return func(p *SF) { p.alternating = true }
}

// NewSFAlternating returns the alternating-display SF variant (Section 2.1
// remark) with the paper's defaults.
func NewSFAlternating(opts ...SFOption) *SF {
	return NewSF(append([]SFOption{WithSFAlternating()}, opts...)...)
}

// NewSF returns an SF protocol with the paper's defaults.
func NewSF(opts ...SFOption) *SF {
	p := &SF{
		c1:            DefaultC1,
		boostWindow:   DefaultBoostWindow,
		boostSubPhase: DefaultBoostSubPhases,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Alphabet returns 2: SF communicates with Σ = {0, 1}.
func (p *SF) Alphabet() int { return 2 }

// Check reports whether SF is applicable in env (alphabet 2, δ < 1/2,
// bias ≥ 1) and that its parameters are computable.
func (p *SF) Check(env sim.Env) error {
	_, _, _, _, err := p.params(env)
	return err
}

// Params reports the derived protocol parameters (m, T, w, L) for env.
func (p *SF) Params(env sim.Env) (m, phaseRounds, boostQuota, subPhases int, err error) {
	return p.params(env)
}

func (p *SF) params(env sim.Env) (m, t, w, l int, err error) {
	if p.mOverride > 0 {
		if err := checkSFEnv(env); err != nil {
			return 0, 0, 0, 0, err
		}
		m = p.mOverride
	} else {
		m, err = SFMessageCount(env, p.c1)
		if err != nil {
			return 0, 0, 0, 0, err
		}
	}
	if p.boostWindow <= 0 || p.boostSubPhase <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("protocol: SF boost parameters (%v, %v) must be positive", p.boostWindow, p.boostSubPhase)
	}
	denom := 1 - 2*env.Delta
	w = int(math.Ceil(p.boostWindow / (denom * denom)))
	if w < 1 {
		w = 1
	}
	l = int(math.Ceil(p.boostSubPhase * math.Log(math.Max(float64(env.N), 2))))
	if l < 1 {
		l = 1
	}
	return m, ceilDiv(m, env.H), w, l, nil
}

// Rounds implements sim.Finite: 2T phases + L short sub-phases + the final
// long sub-phase. It returns 0 when the environment is invalid, which the
// engine reports as an error.
func (p *SF) Rounds(env sim.Env) int {
	_, t, w, l, err := p.params(env)
	if err != nil {
		return 0
	}
	return 3*t + l*ceilDiv(w, env.H)
}
