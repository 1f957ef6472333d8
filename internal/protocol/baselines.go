package protocol

// This file implements the baseline dynamics that the paper's introduction
// and related work discuss, against which SF and SSF are compared in the
// experiment harness (experiment E11):
//
//   - Voter: classic PULL voter dynamics with zealot sources. Robust to
//     nothing: under noise it drifts and never stabilizes on the sources'
//     opinion in sub-linear time (and with h = 1 it is the regime of the
//     Ω(n) lower bound of Theorem 3).
//   - MajorityRule: every round adopt the majority of the h noisy samples.
//     Converges extremely fast — to whichever opinion happens to dominate
//     the initial configuration, drowning out the sources (the "agents are
//     likely to have roughly the same quality of information" failure of
//     Section 1.2).
//   - TrustBit: the naive 2-bit scheme the paper shows cannot work
//     (footnote 2): a designated header bit claims "I am informed"; agents
//     copy from any message whose header bit is set. Noise forges headers,
//     so misinformation cascades.
//
// All three run forever (no sim.Finite), so the engine measures them with a
// stability window. Each is defined by its kernel (vector.go,
// vector_kary.go).

// Voter is PULL(h) voter dynamics with zealot sources: each round every
// non-source agent adopts the value of one uniformly chosen observation
// among its h samples; sources never change their displayed preference.
// Non-sources start with opinion 0.
type Voter struct{}

// Alphabet returns 2.
func (Voter) Alphabet() int { return 2 }

// MajorityRule is plain h-majority dynamics with zealot sources: each round
// every non-source agent adopts the majority symbol among its h noisy
// samples (ties broken by coin). Non-sources start from an arbitrary
// opinion, their id parity, so the initial configuration is balanced: the
// worst case for source-driven convergence.
type MajorityRule struct{}

// Alphabet returns 2.
func (MajorityRule) Alphabet() int { return 2 }

// TrustBit is the naive "designated source bit" scheme of the paper's
// footnote 2, on the alphabet Σ = {0,1}² (same encoding as SSF). Sources
// display (1, preference). A non-source that observes any message with
// header bit 1 adopts the majority value bit among those messages and
// thereafter claims to be informed itself, displaying (1, value). Since the
// header bit is itself noisy, forged headers propagate misinformation.
// Non-sources start uninformed with their id parity as opinion.
type TrustBit struct{}

// Alphabet returns 4.
func (TrustBit) Alphabet() int { return 4 }
