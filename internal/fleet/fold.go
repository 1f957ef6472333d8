package fleet

import "noisypull/internal/service"

// This file is the only code that gives lease records a meaning. The
// service's journal replay stores them as the coordinator appended them: a
// recovered job's records reach Dispatch in DispatchJob.Records, and the
// records that name no job reach adoptQuarantineLocked through
// Binding.NodeRecords. Every seed result is a deterministic function of
// (config, seed), so a restarted coordinator may recompute anything; what
// the folds below must never do is credit one lease's results to another,
// or lease a seed whose result it already holds.

// fold turns the job's lease records into coordinator state, checked once
// against the seeds the job still needs (d.merge.index). It returns the
// banked results — the first delivered result for each needed seed, in
// journal order — and the in-flight leases to re-adopt, and sets the
// backlog and the next lease index.
//
// A lease is the latest grant of its id, with later requeues applied (the
// owner is cleared, the attempt is the maximum); a result or an abandon
// ends it, and other ops, such as the renew records older coordinators
// wrote, change nothing. It survives only if every one of its seeds is
// still needed, unbanked, unclaimed by an earlier lease, and not repeated
// inside it. A surviving quorum lease is not adopted: its votes were never
// journaled, so its seeds go back on the backlog for a fresh replicated
// cut. New lease ids continue past the highest index any record names, so
// a worker redelivering a finished lease never lands on a fresh one.
func (d *dispatch) fold() (banked []service.SeedResult, adopted []*lease) {
	recs, need := d.job.Records, d.merge.index
	var order []string
	live := make(map[string]*service.LeaseRecord)
	claimed := make(map[uint64]bool)
	for i := range recs {
		rec := &recs[i]
		if idx, ok := leaseIndex(d.job.ID, rec.Lease); ok && idx >= d.nextIdx {
			d.nextIdx = idx + 1
		}
		if rec.Lease == "" {
			continue
		}
		switch rec.Op {
		case service.LeaseGrant:
			if len(rec.Seeds) == 0 {
				continue
			}
			if live[rec.Lease] == nil {
				order = append(order, rec.Lease)
			}
			grant := *rec
			live[rec.Lease] = &grant
		case service.LeaseRequeue:
			if l := live[rec.Lease]; l != nil {
				l.Node = ""
				l.Attempt = max(l.Attempt, rec.Attempt)
			}
		case service.LeaseResult:
			delete(live, rec.Lease)
			for _, r := range rec.Results {
				if _, ok := need[r.Seed]; ok && !claimed[r.Seed] {
					claimed[r.Seed] = true
					banked = append(banked, r)
				}
			}
		case service.LeaseAbandon:
			delete(live, rec.Lease)
		}
	}

	recut := make(map[uint64]bool)
	for _, id := range order {
		rl := live[id]
		delete(live, id) // a lease granted again after it ended is in order twice
		if rl == nil || !claim(claimed, rl.Seeds, need) {
			continue
		}
		if rl.Quorum > 1 {
			for _, s := range rl.Seeds {
				recut[s] = true
			}
			continue
		}
		g := newSeedGroup(rl.Seeds, 1)
		g.replicas = 1
		l := &lease{id: rl.Lease, d: d, seeds: rl.Seeds, attempt: rl.Attempt, group: g, recovered: true}
		if rl.Node != "" {
			l.node, l.active = rl.Node, true
			g.holding[rl.Node] = 1
		}
		adopted = append(adopted, l)
	}
	for _, s := range d.merge.order {
		if !claimed[s] || recut[s] {
			d.backlog = append(d.backlog, s)
		}
	}
	return banked, adopted
}

// claim marks seeds claimed if every one is needed, unclaimed, and not
// repeated among them, and leaves claimed as it was otherwise.
func claim(claimed map[uint64]bool, seeds []uint64, need map[uint64]int) bool {
	for i, s := range seeds {
		if _, ok := need[s]; !ok || claimed[s] {
			for _, t := range seeds[:i] {
				delete(claimed, t)
			}
			return false
		}
		claimed[s] = true
	}
	return len(seeds) > 0
}

// foldQuarantine folds the records that name no job into the nodes still
// quarantined (node → reason): a node's last quarantine wins, a later
// absolve clears it, and a record with no node is dropped.
func foldQuarantine(recs []service.LeaseRecord) map[string]string {
	quarantined := make(map[string]string)
	for _, rec := range recs {
		if rec.Node == "" {
			continue
		}
		switch rec.Op {
		case service.LeaseQuarantine:
			quarantined[rec.Node] = rec.Reason
		case service.LeaseAbsolve:
			delete(quarantined, rec.Node)
		}
	}
	return quarantined
}
