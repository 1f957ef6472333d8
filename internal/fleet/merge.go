package fleet

import (
	"fmt"

	"noisypull/internal/service"
)

// merge is the order-free, idempotent result accumulator for one dispatched
// job. Leases finish in whatever order nodes deliver them — including twice,
// when a slow node's range was re-leased and both copies eventually report —
// and merge restores the invariant the rest of the system is built on:
// results are released strictly in spec seed order, each seed exactly once.
//
// That contiguous-prefix release rule is what lets the fleet path reuse the
// single-node journal format unchanged: the journal only ever records a
// prefix of the seed list, so coordinator crash recovery (replay, then
// re-dispatch the incomplete suffix) works identically to single-node
// recovery. Merged-but-unreleased results beyond a gap are lost to a crash
// and simply recomputed — determinism makes that free of observable effect.
//
// Trust model. Per-seed results are deterministic functions of
// (config, seed), so any two *honest* nodes produce bit-identical results —
// that is what makes duplicates discardable. A Byzantine node breaks the
// premise: its delivery is well-formed but wrong. Seeds of a quorum range
// (need > 1, from the delivering lease's seed group) therefore collect
// attestation digests as votes, keyed by node, and admit a payload only once
// `need` distinct nodes delivered the same digest; every voter is then
// scored against the winning digest (verdicts feed node reputation).
// Unverified seeds keep the fast path — first delivery wins — but the
// winner's digest is remembered, so any later duplicate with a digest still
// produces a free agreement check. A result for a seed outside the job is an
// error — the coordinator validates deliveries against the lease before
// calling add, so it can only mean an internal invariant broke.
type merge struct {
	order []uint64       // spec seed order
	index map[uint64]int // seed → position in order
	got   []*service.SeedResult
	next  int // first position not yet released

	winner  []string                        // admitted payload's digest ("" if admitted without one)
	votes   []map[string]string             // node → digest, pre-admission (quorum seeds)
	payload []map[string]service.SeedResult // digest → first payload carrying it
}

// verdict is one node's scored vote on one seed: whether its delivery agreed
// with the payload the merge admitted. The coordinator folds verdicts into
// node reputation.
type verdict struct {
	node  string
	seed  uint64
	agree bool
}

// mergeOut is what one add() call produced: the newly releasable in-order
// run (possibly empty), the results that were new to the merge (what the
// lease journal banks — released is a prefix-gated subset of the merge, not
// of this batch), the number of duplicate/ignored deliveries, and the
// reputation verdicts scored by this delivery.
type mergeOut struct {
	released []service.SeedResult
	fresh    []service.SeedResult
	dups     int
	verdicts []verdict
}

func newMerge(seeds []uint64) *merge {
	m := &merge{
		order:   seeds,
		index:   make(map[uint64]int, len(seeds)),
		got:     make([]*service.SeedResult, len(seeds)),
		winner:  make([]string, len(seeds)),
		votes:   make([]map[string]string, len(seeds)),
		payload: make([]map[string]service.SeedResult, len(seeds)),
	}
	for i, s := range seeds {
		m.index[s] = i
	}
	return m
}

// preload admits journal-banked results directly (no digest, no votes):
// they were merged before a coordinator restart and must never be
// recomputed or re-voted. It returns the in-order run they release.
func (m *merge) preload(results []service.SeedResult) ([]service.SeedResult, error) {
	out, err := m.add("", results, nil, 1)
	return out.released, err
}

// admitted reports whether the seed's payload has been accepted (released
// or awaiting its in-order release).
func (m *merge) admitted(seed uint64) bool {
	pos, ok := m.index[seed]
	return ok && m.got[pos] != nil
}

// add folds one node's delivery in. need is the delivering lease's quorum
// (1 = first delivery wins). digests, when non-nil, is parallel to results
// and carries the coordinator-recomputed attestation digest of each payload;
// nil means an unattested source (journal preload, a pre-attestation worker)
// whose results can satisfy only unverified seeds.
func (m *merge) add(node string, results []service.SeedResult, digests []string, need int) (mergeOut, error) {
	var out mergeOut
	for i := range results {
		r := &results[i]
		pos, ok := m.index[r.Seed]
		if !ok {
			return out, fmt.Errorf("fleet: result for seed %d, which is not part of the job", r.Seed)
		}
		digest := ""
		if digests != nil {
			digest = digests[i]
		}
		if m.got[pos] != nil {
			// Already admitted: idempotent discard, plus a free agreement
			// check when both sides have digests (late deliveries from
			// re-leased copies score reputation at no cost).
			out.dups++
			if digest != "" && m.winner[pos] != "" {
				out.verdicts = append(out.verdicts, verdict{node, r.Seed, digest == m.winner[pos]})
			}
			continue
		}
		if need <= 1 {
			// Unverified seed: first delivery wins. Journal preloads land
			// here too: banked seeds were admitted before the restart.
			m.admit(pos, *r, digest)
			out.fresh = append(out.fresh, *r)
			continue
		}
		// Quorum seed: record the vote, admit at `need` matching digests.
		if digest == "" {
			out.dups++ // unattested delivery cannot vote on a quorum seed
			continue
		}
		votes := m.votes[pos]
		if votes == nil {
			votes = make(map[string]string)
			m.votes[pos] = votes
			m.payload[pos] = make(map[string]service.SeedResult)
		}
		if prev, voted := votes[node]; voted {
			if prev == digest {
				out.dups++ // honest redelivery (lost response, spool retry)
			} else {
				// A node contradicting its own earlier vote is disagreeing
				// with someone — at least one of the two deliveries is wrong.
				out.verdicts = append(out.verdicts, verdict{node, r.Seed, false})
			}
			continue
		}
		votes[node] = digest
		if _, seen := m.payload[pos][digest]; !seen {
			m.payload[pos][digest] = *r
		}
		n := 0
		for _, d := range votes {
			if d == digest {
				n++
			}
		}
		if n < need {
			continue
		}
		win := m.payload[pos][digest]
		m.admit(pos, win, digest)
		out.fresh = append(out.fresh, win)
		for voter, d := range votes {
			out.verdicts = append(out.verdicts, verdict{voter, r.Seed, d == digest})
		}
		m.votes[pos], m.payload[pos] = nil, nil
	}
	for m.next < len(m.got) && m.got[m.next] != nil {
		out.released = append(out.released, *m.got[m.next])
		m.next++
	}
	return out, nil
}

func (m *merge) admit(pos int, r service.SeedResult, digest string) {
	stored := r
	m.got[pos] = &stored
	m.winner[pos] = digest
}

// done reports whether every seed has been released.
func (m *merge) done() bool { return m.next == len(m.order) }

// pending returns the seeds not yet merged (diagnostics).
func (m *merge) pending() []uint64 {
	var out []uint64
	for i, s := range m.order {
		if m.got[i] == nil {
			out = append(out, s)
		}
	}
	return out
}
