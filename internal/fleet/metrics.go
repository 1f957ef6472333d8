package fleet

import (
	"fmt"
	"io"
	"time"
)

// WriteMetrics emits the coordinator's fleet-level rollup in Prometheus
// text format. Its signature matches service.Config.ExtraMetrics, so
// cmd/simd appends it to the daemon's /metrics in coordinator mode. The
// per-node rows carry version and GOMAXPROCS so a mixed-version fleet is
// diagnosable from one scrape.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	nodes := c.reg.snapshot(time.Now())
	pending, active := c.lt.counts()
	jobs := len(c.dispatches)
	c.mu.Unlock()

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	alive, dead := 0, 0
	for _, n := range nodes {
		if n.Alive {
			alive++
		} else {
			dead++
		}
	}
	p("# HELP simd_fleet_nodes Registered worker nodes by liveness.\n")
	p("# TYPE simd_fleet_nodes gauge\n")
	p("simd_fleet_nodes{state=\"alive\"} %d\n", alive)
	p("simd_fleet_nodes{state=\"dead\"} %d\n", dead)
	p("# HELP simd_fleet_node_info Per-node build/runtime identity (value is always 1).\n")
	p("# TYPE simd_fleet_node_info gauge\n")
	for _, n := range nodes {
		p("simd_fleet_node_info{node=%q,version=%q,gomaxprocs=\"%d\",slots=\"%d\"} 1\n",
			n.ID, n.Version, n.GoMaxProcs, n.Slots)
	}
	p("# HELP simd_fleet_node_seeds_total Seeds completed per node.\n")
	p("# TYPE simd_fleet_node_seeds_total counter\n")
	for _, n := range nodes {
		p("simd_fleet_node_seeds_total{node=%q} %d\n", n.ID, n.SeedsDone)
	}
	p("# HELP simd_fleet_node_seeds_per_sec Smoothed per-node seed throughput.\n")
	p("# TYPE simd_fleet_node_seeds_per_sec gauge\n")
	for _, n := range nodes {
		p("simd_fleet_node_seeds_per_sec{node=%q} %g\n", n.ID, n.SeedsPerSec)
	}
	p("# HELP simd_fleet_node_leases_total Leases completed per node.\n")
	p("# TYPE simd_fleet_node_leases_total counter\n")
	for _, n := range nodes {
		p("simd_fleet_node_leases_total{node=%q} %d\n", n.ID, n.LeasesDone)
	}
	p("# HELP simd_fleet_leases Live leases by state.\n")
	p("# TYPE simd_fleet_leases gauge\n")
	p("simd_fleet_leases{state=\"pending\"} %d\n", pending)
	p("simd_fleet_leases{state=\"active\"} %d\n", active)
	p("# HELP simd_fleet_jobs_active Jobs currently dispatched across the fleet.\n")
	p("# TYPE simd_fleet_jobs_active gauge\n")
	p("simd_fleet_jobs_active %d\n", jobs)
	p("# HELP simd_fleet_releases_total Seed ranges re-leased after a deadline expiry or node death.\n")
	p("# TYPE simd_fleet_releases_total counter\n")
	p("simd_fleet_releases_total %d\n", c.releases.Load())
	p("# HELP simd_fleet_results_merged_total Per-seed results merged into jobs.\n")
	p("# TYPE simd_fleet_results_merged_total counter\n")
	p("simd_fleet_results_merged_total %d\n", c.merged.Load())
	p("# HELP simd_fleet_results_duplicate_total Idempotent duplicate seed results discarded by the merge.\n")
	p("# TYPE simd_fleet_results_duplicate_total counter\n")
	p("simd_fleet_results_duplicate_total %d\n", c.duplicates.Load())
	p("# HELP simd_fleet_dispatch_failures_total Dispatched jobs failed (worker error or lease attempt cap).\n")
	p("# TYPE simd_fleet_dispatch_failures_total counter\n")
	p("simd_fleet_dispatch_failures_total %d\n", c.failures.Load())
	p("# HELP simd_fleet_polls_total Work polls served.\n")
	p("# TYPE simd_fleet_polls_total counter\n")
	p("simd_fleet_polls_total %d\n", c.polls.Load())
	p("# HELP simd_fleet_leases_journaled_total Lease grants written to the journal (fresh grants, re-grants and adoptions).\n")
	p("# TYPE simd_fleet_leases_journaled_total counter\n")
	p("simd_fleet_leases_journaled_total %d\n", c.journaledLeases.Load())
	p("# HELP simd_fleet_leases_adopted_total In-flight leases reconstructed from the journal after a restart.\n")
	p("# TYPE simd_fleet_leases_adopted_total counter\n")
	p("simd_fleet_leases_adopted_total %d\n", c.adopted.Load())
	p("# HELP simd_fleet_late_deliveries_total Seed results accepted from leases granted by a previous coordinator process.\n")
	p("# TYPE simd_fleet_late_deliveries_total counter\n")
	p("simd_fleet_late_deliveries_total %d\n", c.lateDeliveries.Load())
	p("# HELP simd_fleet_seeds_redispatched_total Already-delivered seeds leased again after a restart (must stay 0; a nonzero value is a recovery bug).\n")
	p("# TYPE simd_fleet_seeds_redispatched_total counter\n")
	p("simd_fleet_seeds_redispatched_total %d\n", c.redispatched.Load())
	p("# HELP simd_fleet_lease_abandoned_total Leases abandoned at the attempt cap, failing their job.\n")
	p("# TYPE simd_fleet_lease_abandoned_total counter\n")
	p("simd_fleet_lease_abandoned_total %d\n", c.abandoned.Load())
	quarantined := 0
	for _, n := range nodes {
		if n.Quarantined {
			quarantined++
		}
	}
	p("# HELP simd_fleet_nodes_quarantined Nodes currently refused leases over attestation failures or quorum disagreement.\n")
	p("# TYPE simd_fleet_nodes_quarantined gauge\n")
	p("simd_fleet_nodes_quarantined %d\n", quarantined)
	p("# HELP simd_fleet_node_quarantined Per-node quarantine state (1 = currently quarantined).\n")
	p("# TYPE simd_fleet_node_quarantined gauge\n")
	for _, n := range nodes {
		q := 0
		if n.Quarantined {
			q = 1
		}
		p("simd_fleet_node_quarantined{node=%q} %d\n", n.ID, q)
	}
	p("# HELP simd_fleet_node_att_fail_ewma Per-node attestation-failure EWMA (quarantine trips past the threshold).\n")
	p("# TYPE simd_fleet_node_att_fail_ewma gauge\n")
	for _, n := range nodes {
		p("simd_fleet_node_att_fail_ewma{node=%q} %g\n", n.ID, n.AttFailEWMA)
	}
	p("# HELP simd_fleet_node_quorum_votes_total Per-node quorum votes by verdict.\n")
	p("# TYPE simd_fleet_node_quorum_votes_total counter\n")
	for _, n := range nodes {
		p("simd_fleet_node_quorum_votes_total{node=%q,verdict=\"agree\"} %d\n", n.ID, n.Agreements)
		p("simd_fleet_node_quorum_votes_total{node=%q,verdict=\"disagree\"} %d\n", n.ID, n.Disagreements)
	}
	p("# HELP simd_fleet_quorum_votes_total Quorum votes scored fleet-wide, by verdict.\n")
	p("# TYPE simd_fleet_quorum_votes_total counter\n")
	p("simd_fleet_quorum_votes_total{verdict=\"agree\"} %d\n", c.agreements.Load())
	p("simd_fleet_quorum_votes_total{verdict=\"disagree\"} %d\n", c.disagreements.Load())
	p("# HELP simd_fleet_quorum_escalations_total Extra quorum replicas cut after a full round of split votes.\n")
	p("# TYPE simd_fleet_quorum_escalations_total counter\n")
	p("simd_fleet_quorum_escalations_total %d\n", c.escalations.Load())
	p("# HELP simd_fleet_attestation_failures_total Deliveries rejected before merging (digest self-check or out-of-lease payload).\n")
	p("# TYPE simd_fleet_attestation_failures_total counter\n")
	p("simd_fleet_attestation_failures_total %d\n", c.attFailures.Load())
	p("# HELP simd_fleet_quarantines_total Node quarantine events.\n")
	p("# TYPE simd_fleet_quarantines_total counter\n")
	p("simd_fleet_quarantines_total %d\n", c.quarantines.Load())
	p("# HELP simd_fleet_quarantine_rejected_total RPCs refused because the caller is quarantined.\n")
	p("# TYPE simd_fleet_quarantine_rejected_total counter\n")
	p("simd_fleet_quarantine_rejected_total %d\n", c.quarRejected.Load())
	p("# HELP simd_fleet_auth_failures_total RPCs rejected by the shared-secret HMAC check.\n")
	p("# TYPE simd_fleet_auth_failures_total counter\n")
	p("simd_fleet_auth_failures_total %d\n", c.authFailures.Load())
	return err
}

// WriteMetrics emits the worker-side rollup (mounted on a worker daemon's
// /metrics via the same ExtraMetrics hook).
func (w *Worker) WriteMetrics(out io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(out, format, args...)
		}
	}
	up := 0
	if w.up.Load() {
		up = 1
	}
	p("# HELP simd_fleet_worker_up Whether the last coordinator RPC succeeded.\n")
	p("# TYPE simd_fleet_worker_up gauge\n")
	p("simd_fleet_worker_up %d\n", up)
	p("# HELP simd_fleet_worker_busy Leases currently executing on this node.\n")
	p("# TYPE simd_fleet_worker_busy gauge\n")
	p("simd_fleet_worker_busy %d\n", w.busy.Load())
	p("# HELP simd_fleet_worker_leases_total Leases completed by this node.\n")
	p("# TYPE simd_fleet_worker_leases_total counter\n")
	p("simd_fleet_worker_leases_total %d\n", w.leasesDone.Load())
	p("# HELP simd_fleet_worker_seeds_total Seeds completed by this node.\n")
	p("# TYPE simd_fleet_worker_seeds_total counter\n")
	p("simd_fleet_worker_seeds_total %d\n", w.seedsDone.Load())
	p("# HELP simd_fleet_worker_lease_errors_total Leases that failed on this node (reported to the coordinator).\n")
	p("# TYPE simd_fleet_worker_lease_errors_total counter\n")
	p("simd_fleet_worker_lease_errors_total %d\n", w.leaseErrs.Load())
	queued, dropped := w.sp.stats()
	p("# HELP simd_fleet_worker_spooled_results Result deliveries parked awaiting coordinator heal.\n")
	p("# TYPE simd_fleet_worker_spooled_results gauge\n")
	p("simd_fleet_worker_spooled_results %d\n", queued)
	p("# HELP simd_fleet_worker_spool_delivered_total Spooled result deliveries that eventually succeeded.\n")
	p("# TYPE simd_fleet_worker_spool_delivered_total counter\n")
	p("simd_fleet_worker_spool_delivered_total %d\n", w.spoolDelivered.Load())
	p("# HELP simd_fleet_worker_spool_dropped_total Spooled result deliveries evicted (overflow or attempt cap).\n")
	p("# TYPE simd_fleet_worker_spool_dropped_total counter\n")
	p("simd_fleet_worker_spool_dropped_total %d\n", dropped)
	p("# HELP simd_fleet_worker_corrupt_leases_total Leases dropped for failing their wire checksum.\n")
	p("# TYPE simd_fleet_worker_corrupt_leases_total counter\n")
	p("simd_fleet_worker_corrupt_leases_total %d\n", w.wireCorrupt.Load())
	return err
}
