package protocol

import (
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// This file makes the three baseline dynamics countable (sim.
// CountableProtocol): their agents are exchangeable within a handful of
// state classes, so the counts backend can advance the whole population as
// class counts with per-round cost independent of n. Every method here must
// stay distribution-identical to the protocols' kernels (vector.go,
// vector_kary.go), which define them — the exact chain and cross-backend
// chi-square tests in internal/sim enforce that.

// Class layout shared by Voter and MajorityRule (binary alphabet, one
// opinion bit, immutable source roles):
const (
	binNon0   = 0 // non-source, opinion 0
	binNon1   = 1 // non-source, opinion 1
	binSrc0   = 2 // source preferring 0
	binSrc1   = 3 // source preferring 1
	binStates = 4
)

// TrustBit class layout (alphabet {0,1}², informed flag + opinion bit):
const (
	tbUn0    = 0 // uninformed, opinion 0: displays (0,0)
	tbUn1    = 1 // uninformed, opinion 1: displays (0,1)
	tbInf0   = 2 // informed, opinion 0: displays (1,0)
	tbInf1   = 3 // informed, opinion 1: displays (1,1)
	tbSrc0   = 4 // source preferring 0: displays (1,0)
	tbSrc1   = 5 // source preferring 1: displays (1,1)
	tbStates = 6
)

// binInitialCounts fills the shared binary class histogram of a fresh
// population: sources pinned to their preference classes, non-sources split
// by the given op-1 count.
func binInitialCounts(env sim.Env, sources1, sources0, ones int, counts []int) {
	counts[binSrc1] = sources1
	counts[binSrc0] = sources0
	counts[binNon1] = ones
	counts[binNon0] = env.N - sources1 - sources0 - ones
}

// oddIDsFrom returns the number of odd agent ids in [s, n) — the op-1 count
// of a parity-initialized non-source population whose sources occupy ids
// [0, s).
func oddIDsFrom(s, n int) int {
	return n/2 - s/2
}

// --- Voter ---

// NumStates implements sim.CountableProtocol.
func (Voter) NumStates(env sim.Env) int { return binStates }

// DisplayOf implements sim.CountableProtocol.
func (Voter) DisplayOf(env sim.Env, state int) int { return state & 1 }

// OpinionOf implements sim.CountableProtocol.
func (Voter) OpinionOf(env sim.Env, state int) int { return state & 1 }

// InitialCounts implements sim.CountableProtocol. Voter non-sources start
// with the zero-value opinion 0.
func (Voter) InitialCounts(env sim.Env, sources1, sources0 int, counts []int) {
	binInitialCounts(env, sources1, sources0, 0, counts)
}

// TransitionRow implements sim.CountableProtocol: a non-source adopts the
// symbol of one uniformly chosen observation among its h samples, and each
// observation is distributed as obs, so P(opinion 1) = obs[1] regardless of
// the current opinion. Sources never move.
func (Voter) TransitionRow(env sim.Env, state int, obs, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if state == binSrc0 || state == binSrc1 {
		row[state] = 1
		return
	}
	row[binNon1] = obs[1]
	row[binNon0] = 1 - obs[1]
}

// --- MajorityRule ---

// NumStates implements sim.CountableProtocol.
func (MajorityRule) NumStates(env sim.Env) int { return binStates }

// DisplayOf implements sim.CountableProtocol.
func (MajorityRule) DisplayOf(env sim.Env, state int) int { return state & 1 }

// OpinionOf implements sim.CountableProtocol.
func (MajorityRule) OpinionOf(env sim.Env, state int) int { return state & 1 }

// InitialCounts implements sim.CountableProtocol. Non-sources start from id
// parity (ids [s, n), odd ids opinion 1), matching the kernel's balanced
// worst-case initialization.
func (MajorityRule) InitialCounts(env sim.Env, sources1, sources0 int, counts []int) {
	binInitialCounts(env, sources1, sources0, oddIDsFrom(sources1+sources0, env.N), counts)
}

// TransitionRow implements sim.CountableProtocol: a non-source adopts the
// majority of its h observations (coin on ties), whose 1-count is
// Binomial(h, obs[1]).
func (MajorityRule) TransitionRow(env sim.Env, state int, obs, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if state == binSrc0 || state == binSrc1 {
		row[state] = 1
		return
	}
	p1 := stats.MajorityWin(env.H, obs[1])
	row[binNon1] = p1
	row[binNon0] = 1 - p1
}

// --- TrustBit ---

// NumStates implements sim.CountableProtocol.
func (TrustBit) NumStates(env sim.Env) int { return tbStates }

// DisplayOf implements sim.CountableProtocol.
func (TrustBit) DisplayOf(env sim.Env, state int) int {
	switch state {
	case tbUn0:
		return ssfSym00
	case tbUn1:
		return ssfSym01
	case tbInf0, tbSrc0:
		return ssfSym10
	default: // tbInf1, tbSrc1
		return ssfSym11
	}
}

// OpinionOf implements sim.CountableProtocol.
func (TrustBit) OpinionOf(env sim.Env, state int) int {
	switch state {
	case tbUn1, tbInf1, tbSrc1:
		return 1
	default:
		return 0
	}
}

// InitialCounts implements sim.CountableProtocol. Non-sources start
// uninformed with parity opinions.
func (TrustBit) InitialCounts(env sim.Env, sources1, sources0 int, counts []int) {
	counts[tbSrc1] = sources1
	counts[tbSrc0] = sources0
	s := sources1 + sources0
	ones := oddIDsFrom(s, env.N)
	counts[tbUn1] = ones
	counts[tbUn0] = env.N - s - ones
}

// TransitionRow implements sim.CountableProtocol. A non-source that sees no
// header-tagged observation among its h samples keeps its entire state
// (probability (1−qT)^h for tagged mass qT = obs[(1,0)] + obs[(1,1)]).
// Otherwise it becomes informed with the majority value bit of the tagged
// observations: conditioned on seeing m ≥ 1 tagged messages — m is
// Binomial(h, qT) — the 1-tags among them are Binomial(m, obs[(1,1)]/qT),
// and ties fall to a coin.
func (TrustBit) TransitionRow(env sim.Env, state int, obs, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if state == tbSrc0 || state == tbSrc1 {
		row[state] = 1
		return
	}
	qT := obs[ssfSym10] + obs[ssfSym11]
	if qT <= 0 {
		row[state] = 1
		return
	}
	pTag1 := obs[ssfSym11] / qT
	if pTag1 > 1 {
		pTag1 = 1 // float dust when obs[(1,0)] underflows
	}
	h := env.H
	pStay := stats.BinomPMF(h, qT, 0)
	pWin1 := 0.0
	for m := 1; m <= h; m++ {
		pWin1 += stats.BinomPMF(h, qT, m) * stats.MajorityWin(m, pTag1)
	}
	pWin0 := 1 - pStay - pWin1
	if pWin0 < 0 {
		pWin0 = 0
	}
	// += because an already-informed class's stay mass and win mass land on
	// the same entry when the majority confirms its current opinion.
	row[state] = pStay
	row[tbInf1] += pWin1
	row[tbInf0] += pWin0
}

// --- Corruption rows ---
//
// CorruptRow must match the kernels' CorruptAt: a corrupted non-source
// lands in the wrong-consensus class (or a coin-flip class under
// CorruptRandom), sources are untouched (identity row). The counts backend
// applies it to the fresh population for Config.Corruption and to each hit
// agent of a KindCorrupt fault.

// binCorruptRow is the shared binary-layout corrupt row: Voter and
// MajorityRule agents carry only the opinion bit, which CorruptRandom draws
// as a fair coin.
func binCorruptRow(state int, mode sim.CorruptionMode, wrongOpinion int, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if state == binSrc0 || state == binSrc1 {
		row[state] = 1
		return
	}
	switch mode {
	case sim.CorruptWrongConsensus:
		row[binNon0+wrongOpinion] = 1
	case sim.CorruptRandom:
		row[binNon0] = 0.5
		row[binNon1] = 0.5
	default:
		row[state] = 1
	}
}

// CorruptRow implements sim.CountableProtocol.
func (Voter) CorruptRow(env sim.Env, state int, mode sim.CorruptionMode, wrongOpinion int, row []float64) {
	binCorruptRow(state, mode, wrongOpinion, row)
}

// CorruptRow implements sim.CountableProtocol.
func (MajorityRule) CorruptRow(env sim.Env, state int, mode sim.CorruptionMode, wrongOpinion int, row []float64) {
	binCorruptRow(state, mode, wrongOpinion, row)
}

// CorruptRow implements sim.CountableProtocol: wrong-consensus makes the
// agent informed with the wrong opinion; random draws the informed flag and
// the opinion as independent fair coins (a uniform 4-way split), exactly as
// the kernel's CorruptAt does.
func (TrustBit) CorruptRow(env sim.Env, state int, mode sim.CorruptionMode, wrongOpinion int, row []float64) {
	for i := range row {
		row[i] = 0
	}
	if state == tbSrc0 || state == tbSrc1 {
		row[state] = 1
		return
	}
	switch mode {
	case sim.CorruptWrongConsensus:
		row[tbInf0+wrongOpinion] = 1
	case sim.CorruptRandom:
		row[tbUn0], row[tbUn1] = 0.25, 0.25
		row[tbInf0], row[tbInf1] = 0.25, 0.25
	default:
		row[state] = 1
	}
}

// Compile-time interface checks: the three baselines must stay countable.
var (
	_ sim.CountableProtocol = Voter{}
	_ sim.CountableProtocol = MajorityRule{}
	_ sim.CountableProtocol = TrustBit{}
)
