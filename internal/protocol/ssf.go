package protocol

import (
	"fmt"

	"noisypull/internal/sim"
)

// SSF symbol encoding: each message is a pair (sourceBit, valueBit) from
// Σ = {0,1}², packed as symbol = 2·sourceBit + valueBit. For sources the
// value bit is their preference; for non-sources it is their weak opinion.
const (
	ssfSym00 = 0 // (0,0): non-source with weak opinion 0
	ssfSym01 = 1 // (0,1): non-source with weak opinion 1
	ssfSym10 = 2 // (1,0): source preferring 0
	ssfSym11 = 3 // (1,1): source preferring 1
)

// SSF is the Self-stabilizing Source Filter protocol (Algorithm 2,
// Theorem 5).
//
// Every round an agent adds its h observations to a memory multiset M
// (represented as per-symbol counts: the algorithm only ever takes
// majorities, so counts are sufficient state). Whenever |M| reaches m, the
// agent updates
//
//   - its weak opinion Ŷ to the majority of value bits among messages whose
//     source bit is 1 (ties broken by coin), and
//   - its opinion Y to the majority of value bits over all of M (ties by
//     coin),
//
// and empties M. Sources display (1, preference); non-sources display
// (0, Ŷ). The protocol runs forever and tolerates arbitrary corruption of
// memory, opinions, and clocks: after at most two updates, all state derives
// from genuinely sampled messages.
type SSF struct {
	c1        float64
	mOverride int
}

// SSFOption customizes SSF.
type SSFOption func(*SSF)

// WithSSFConstant sets the constant c1 of Eq. (30).
func WithSSFConstant(c1 float64) SSFOption {
	return func(p *SSF) { p.c1 = c1 }
}

// WithSSFUpdateQuota overrides the update quota m directly, bypassing
// Eq. (30).
func WithSSFUpdateQuota(m int) SSFOption {
	return func(p *SSF) { p.mOverride = m }
}

// NewSSF returns an SSF protocol with the paper's defaults.
func NewSSF(opts ...SSFOption) *SSF {
	p := &SSF{c1: DefaultC1}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Alphabet returns 4: SSF communicates with Σ = {0,1}².
func (p *SSF) Alphabet() int { return 4 }

// Check reports whether SSF is applicable in env (alphabet 4, δ < 1/4) and
// whether its update quota fits the kernel's counters (m ≤ 2³⁰).
func (p *SSF) Check(env sim.Env) error {
	_, err := p.quota(env)
	return err
}

// UpdateQuota reports the memory quota m used in env.
func (p *SSF) UpdateQuota(env sim.Env) (int, error) {
	return p.quota(env)
}

// maxSSFQuota is the largest update quota the kernel's int32 memory
// counters hold: they peak at m + h − 1 before an update empties them.
const maxSSFQuota = 1 << 30

func (p *SSF) quota(env sim.Env) (int, error) {
	m := p.mOverride
	if m > 0 {
		if err := checkSSFEnv(env); err != nil {
			return 0, err
		}
	} else {
		var err error
		if m, err = SSFMessageCount(env, p.c1); err != nil {
			return 0, err
		}
	}
	if m > maxSSFQuota {
		return 0, fmt.Errorf("protocol: SSF update quota m = %d exceeds the limit %d of the kernel's counters", m, maxSSFQuota)
	}
	return m, nil
}

// ConvergenceRounds returns the number of rounds after which Theorem 5
// guarantees consensus: 3·⌈m/h⌉ (two updates to flush adversarial state and
// establish independent weak opinions, one more for opinions; Lemmas 36–39).
// Useful for sizing MaxRounds in experiments.
func (p *SSF) ConvergenceRounds(env sim.Env) (int, error) {
	m, err := p.quota(env)
	if err != nil {
		return 0, err
	}
	return 3 * ceilDiv(m, env.H), nil
}

// RunBounds returns the stability window and round cap that size an SSF run
// in env: the window spans two full update cycles, 2·⌈m/h⌉ rounds, so
// "converged" means consensus survives memory flushes, and the cap is
// 6·ConvergenceRounds plus the window.
func (p *SSF) RunBounds(env sim.Env) (window, maxRounds int, err error) {
	m, err := p.quota(env)
	if err != nil {
		return 0, 0, err
	}
	updateRounds := ceilDiv(m, env.H)
	window = 2 * updateRounds
	return window, 6*3*updateRounds + window, nil
}
