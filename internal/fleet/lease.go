package fleet

import (
	"fmt"
	"time"
)

// lease lifecycle (see DESIGN §3.10):
//
//	pending ──poll──▶ active ──result──▶ done
//	   ▲                 │
//	   └──deadline/node──┘  (re-lease: attempt++, back of the queue)
//
// A lease is pending until a worker polls it, active with a deadline while
// leased (heartbeats renew the deadline), and done once its results merged.
// Deadline expiry or the owning node's death re-queues it; exceeding the
// attempt cap fails the job.
type lease struct {
	id       string
	d        *dispatch
	seeds    []uint64
	node     string // owning node while active; "" while pending
	deadline time.Time
	attempt  int
	active   bool

	// group ties replicas of the same seed range together for quorum
	// verification.
	group *seedGroup

	// recovered marks a lease re-adopted from the journal after a
	// coordinator restart; its deliveries count as late deliveries.
	recovered bool
}

// seedGroup is the shared identity of every replica lease covering one seed
// range, and the only place that decides how many replicas of the range
// run. An unverified range wants one lease; a quorum range
// (-verify-seeds=k) wants k and admits a seed at need = k/2+1 agreeing
// votes, and each split round of votes raises want by one. Re-queueing a
// lease after expiry, node death or quarantine moves a replica rather than
// adding one. The group is also what enforces replica distinctness: a node
// holding or having voted on the range is ineligible for further replicas
// of it.
type seedGroup struct {
	seeds       []uint64
	want        int             // replica leases the range should have
	need        int             // agreeing votes required per seed (1 = first wins)
	replicas    int             // replica leases cut so far
	delivered   int             // replicas that delivered results
	escalations int             // times a split round of votes raised want
	holding     map[string]int  // node → live replicas of this range it holds
	voted       map[string]bool // nodes that already delivered for this range
}

// newSeedGroup builds the group of a range replicated k >= 1 times (k = 1
// is one unverified lease).
func newSeedGroup(seeds []uint64, k int) *seedGroup {
	return &seedGroup{seeds: seeds, want: k, need: k/2 + 1,
		holding: make(map[string]int), voted: make(map[string]bool)}
}

// eligible reports whether the node may take this lease: quorum replicas
// must spread across distinct nodes.
func (l *lease) eligible(nodeID string) bool {
	g := l.group
	return g.need <= 1 || (g.holding[nodeID] == 0 && !g.voted[nodeID])
}

// leaseTable holds every live lease of every dispatched job: a FIFO pending
// queue plus an id index for heartbeat renewal and result lookup. Not
// self-locking — the coordinator serializes access under its mutex.
type leaseTable struct {
	pending []*lease          // FIFO; re-leases go to the back
	byID    map[string]*lease // pending + active (done leases are removed)
}

func newLeaseTable() *leaseTable {
	return &leaseTable{byID: make(map[string]*lease)}
}

// add enqueues a dispatch's leases.
func (t *leaseTable) add(ls []*lease) {
	for _, l := range ls {
		t.pending = append(t.pending, l)
		t.byID[l.id] = l
	}
}

// fill cuts replica leases of g, numbered from d's lease-id sequence, until
// the group has want of them, and enqueues them. It is the only code that
// builds new leases (dispatch.fold rebuilds journaled ones).
func (t *leaseTable) fill(d *dispatch, g *seedGroup) []*lease {
	var cut []*lease
	for ; g.replicas < g.want; g.replicas++ {
		cut = append(cut, &lease{id: leaseID(d.job.ID, d.nextIdx), d: d, seeds: g.seeds, group: g})
		d.nextIdx++
	}
	t.add(cut)
	return cut
}

// install registers journal-recovered leases without granting anything:
// active ones (a node owned them at the crash) go straight into the id
// index — their owners keep renewing them via heartbeat and deliver as
// usual — while ownerless ones re-enter the pending queue with their
// attempt count preserved.
func (t *leaseTable) install(ls []*lease) {
	for _, l := range ls {
		t.byID[l.id] = l
		if !l.active {
			t.pending = append(t.pending, l)
		}
	}
}

// next pops the oldest pending lease the node is eligible for and marks it
// active on the node with the given deadline. Nil when no eligible work is
// pending (replicas of a range the node already holds or voted on are
// skipped, not popped — they wait for a different node).
func (t *leaseTable) next(nodeID string, deadline time.Time) *lease {
	for i, l := range t.pending {
		if !l.eligible(nodeID) {
			continue
		}
		copy(t.pending[i:], t.pending[i+1:])
		t.pending[len(t.pending)-1] = nil
		t.pending = t.pending[:len(t.pending)-1]
		l.node = nodeID
		l.deadline = deadline
		l.active = true
		l.group.holding[nodeID]++
		return l
	}
	return nil
}

// get looks a live lease up without removing it.
func (t *leaseTable) get(id string) *lease { return t.byID[id] }

// renew extends the deadlines of the listed leases where the reporting node
// still owns them, and returns the ids the node should abort: leases it
// claims to run that were re-leased elsewhere, finished, or cancelled.
func (t *leaseTable) renew(nodeID string, ids []string, deadline time.Time) (cancel []string) {
	for _, id := range ids {
		l := t.byID[id]
		if l == nil || !l.active || l.node != nodeID {
			cancel = append(cancel, id)
			continue
		}
		l.deadline = deadline
	}
	return cancel
}

// complete removes a finished lease from the table. It returns the lease if
// it was live (pending or active, whoever owns it now — deliveries from
// demoted owners still carry valid deterministic results) and nil if the
// lease is unknown (already completed, or its job is gone).
func (t *leaseTable) complete(id string) *lease {
	l := t.byID[id]
	if l == nil {
		return nil
	}
	delete(t.byID, id)
	if !l.active {
		t.unqueue(l)
	}
	l.releaseHold()
	l.active = false
	return l
}

// releaseHold drops the owning node's replica-hold on the lease's group.
func (l *lease) releaseHold() {
	if l.node == "" {
		return
	}
	if n := l.group.holding[l.node]; n > 1 {
		l.group.holding[l.node] = n - 1
	} else {
		delete(l.group.holding, l.node)
	}
}

// requeue puts an expired or orphaned active lease back on the pending
// queue; bump counts it as a failed attempt (deadline expiry, node death),
// while bump=false re-queues without blame (the owner was quarantined —
// the lease did nothing wrong).
func (t *leaseTable) requeue(l *lease, bump bool) {
	if bump {
		l.attempt++
	}
	l.releaseHold()
	l.node = ""
	l.active = false
	l.deadline = time.Time{}
	t.pending = append(t.pending, l)
}

// expire collects active leases whose deadline has passed, removing them
// from active state (the caller decides between requeue and job failure).
func (t *leaseTable) expire(now time.Time) []*lease {
	var out []*lease
	for _, l := range t.byID {
		if l.active && now.After(l.deadline) {
			out = append(out, l)
		}
	}
	return out
}

// activeOn collects the active leases owned by one node (re-queued when the
// node dies).
func (t *leaseTable) activeOn(nodeID string) []*lease {
	var out []*lease
	for _, l := range t.byID {
		if l.active && l.node == nodeID {
			out = append(out, l)
		}
	}
	return out
}

// dropGroupPending removes the group's still-pending replicas: every seed
// in the range was admitted, so outstanding copies have nothing left to
// prove. Active replicas are left to finish — their deliveries land as
// duplicates and still score free reputation verdicts.
func (t *leaseTable) dropGroupPending(g *seedGroup) {
	for id, l := range t.byID {
		if l.group == g && !l.active {
			delete(t.byID, id)
			t.unqueue(l)
		}
	}
}

// dropJob removes every lease of a dispatch (job finished, failed, or
// cancelled). Workers still executing them learn via heartbeat cancel
// lists; late result deliveries find no lease and are ignored.
func (t *leaseTable) dropJob(d *dispatch) {
	for id, l := range t.byID {
		if l.d != d {
			continue
		}
		delete(t.byID, id)
		if !l.active {
			t.unqueue(l)
		}
	}
}

// unqueue removes a pending lease from the FIFO slice.
func (t *leaseTable) unqueue(target *lease) {
	for i, l := range t.pending {
		if l == target {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return
		}
	}
}

// counts reports (pending, active) lease totals for metrics.
func (t *leaseTable) counts() (pending, active int) {
	pending = len(t.pending)
	active = len(t.byID) - pending
	return pending, active
}

// leaseID builds the id of job jobID's i-th lease on a given attempt
// generation. Re-leases keep their id (the range identity is stable), so
// this is only called at lease-cut time.
func leaseID(jobID string, i int) string {
	return fmt.Sprintf("l-%s-%03d", jobID, i)
}
