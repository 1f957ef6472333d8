package fleet

import (
	"fmt"
	"sort"
	"time"
)

// node is the coordinator's mutable record of one worker. All fields are
// guarded by the coordinator mutex.
type node struct {
	id         string
	version    string
	gomaxprocs int
	slots      int

	registered time.Time
	lastSeen   time.Time
	alive      bool

	seedsDone  int64
	leasesDone int64
	lastResult time.Time
	rate       float64 // EWMA seeds/sec, updated per result delivery

	// Reputation (quorum verification feeds these; see coordinator.go).
	agree       int64     // quorum votes that matched the admitted payload
	disagree    int64     // votes outvoted by the quorum
	attFails    int64     // deliveries rejected before merging (bad claimed digest, out-of-lease seeds)
	attFailEWMA float64   // recent-failure signal driving quarantine; α = repAlpha
	quarantines int64     // times the node entered quarantine
	quarUntil   time.Time // nonzero while quarantined; heals after probation
}

// repAlpha is the attestation-failure EWMA step: failure moves the signal
// halfway to 1, agreement halfway back to 0 — one confirmed lie against a
// clean history crosses quarantineThreshold immediately, while a
// long-honest node needs sustained failures.
const repAlpha = 0.5

// quarantineThreshold is the attestation-failure EWMA at which a node is
// quarantined.
const quarantineThreshold = 0.5

// quarantined reports whether the node is refused leases at time now.
func (n *node) quarantined(now time.Time) bool {
	return !n.quarUntil.IsZero() && now.Before(n.quarUntil)
}

// recordAgree scores one quorum vote that matched the admitted payload.
func (n *node) recordAgree() {
	n.agree++
	n.attFailEWMA *= 1 - repAlpha
}

// recordDisagree scores an outvoted quorum vote; recordAttFail scores a
// delivery rejected before it could even vote (claimed digest mismatching
// the payload, results outside the lease's seed range). Both push the
// failure EWMA toward 1; the coordinator quarantines past its threshold.
func (n *node) recordDisagree() {
	n.disagree++
	n.attFailEWMA = (1-repAlpha)*n.attFailEWMA + repAlpha
}

func (n *node) recordAttFail() {
	n.attFails++
	n.attFailEWMA = (1-repAlpha)*n.attFailEWMA + repAlpha
}

// NodeInfo is a read-only snapshot of one registered node, exposed for
// metrics and tests.
type NodeInfo struct {
	ID          string
	Version     string
	GoMaxProcs  int
	Slots       int
	Alive       bool
	LastSeen    time.Time
	SeedsDone   int64
	LeasesDone  int64
	SeedsPerSec float64

	Agreements    int64
	Disagreements int64
	AttFailures   int64
	AttFailEWMA   float64
	Quarantined   bool
	Quarantines   int64
}

// registry tracks worker nodes and their liveness. A node that has not been
// heard from (poll, heartbeat, or result) for ttl is marked dead and its
// leases re-queued; a dead node that speaks again revives. Methods are not
// self-locking — the coordinator serializes access under its mutex.
type registry struct {
	ttl   time.Duration
	nodes map[string]*node
	seq   int
}

func newRegistry(ttl time.Duration) *registry {
	return &registry{ttl: ttl, nodes: make(map[string]*node)}
}

// register upserts a node. An empty id gets a coordinator-assigned one.
func (r *registry) register(req *RegisterRequest, now time.Time) *node {
	id := req.NodeID
	if id == "" {
		r.seq++
		id = fmt.Sprintf("n-%03d", r.seq)
	}
	n, ok := r.nodes[id]
	if !ok {
		n = &node{id: id, registered: now}
		r.nodes[id] = n
	}
	n.version = req.Version
	n.gomaxprocs = req.GoMaxProcs
	n.slots = req.Slots
	n.lastSeen = now
	n.alive = true
	return n
}

// touch records liveness contact from a node, reviving it if it was marked
// dead. Returns nil for unknown nodes (the caller answers "re-register").
func (r *registry) touch(id string, now time.Time) *node {
	n := r.nodes[id]
	if n == nil {
		return nil
	}
	n.lastSeen = now
	n.alive = true
	return n
}

// ensure returns the node record for id, creating a dead placeholder if the
// node has never spoken — used to re-pin journal-recovered quarantine onto
// nodes that have not yet re-registered after a coordinator restart.
func (r *registry) ensure(id string, now time.Time) *node {
	n := r.nodes[id]
	if n == nil {
		n = &node{id: id, registered: now, lastSeen: now}
		r.nodes[id] = n
	}
	return n
}

// recordResult updates a node's throughput accounting after a lease
// delivered nseeds results.
func (n *node) recordResult(nseeds int, now time.Time) {
	n.seedsDone += int64(nseeds)
	n.leasesDone++
	if !n.lastResult.IsZero() {
		if dt := now.Sub(n.lastResult).Seconds(); dt > 0 {
			inst := float64(nseeds) / dt
			if n.rate == 0 {
				n.rate = inst
			} else {
				n.rate = 0.7*n.rate + 0.3*inst
			}
		}
	}
	n.lastResult = now
}

// sweep marks nodes silent for longer than ttl as dead, returning the ones
// that died this pass (their leases must be re-queued). It also decays the
// throughput EWMA of nodes that have stopped delivering: without this the
// seeds-per-sec gauge of an idle or dead node holds its last value forever,
// and locality-aware lease sizing would keep cutting full-size leases for a
// node that is no longer fast (or no longer there).
func (r *registry) sweep(now time.Time) []*node {
	var died []*node
	for _, n := range r.nodes {
		if n.alive && now.Sub(n.lastSeen) > r.ttl {
			n.alive = false
			died = append(died, n)
		}
		if n.rate > 0 && now.Sub(n.lastResult) > r.ttl {
			n.rate *= 0.7
			if n.rate < 1e-3 {
				n.rate = 0
			}
		}
	}
	return died
}

// snapshot returns all nodes as NodeInfo, sorted by id. now resolves the
// quarantine window into the boolean the caller sees.
func (r *registry) snapshot(now time.Time) []NodeInfo {
	out := make([]NodeInfo, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, NodeInfo{
			ID:          n.id,
			Version:     n.version,
			GoMaxProcs:  n.gomaxprocs,
			Slots:       n.slots,
			Alive:       n.alive,
			LastSeen:    n.lastSeen,
			SeedsDone:   n.seedsDone,
			LeasesDone:  n.leasesDone,
			SeedsPerSec: n.rate,

			Agreements:    n.agree,
			Disagreements: n.disagree,
			AttFailures:   n.attFails,
			AttFailEWMA:   n.attFailEWMA,
			Quarantined:   n.quarantined(now),
			Quarantines:   n.quarantines,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
