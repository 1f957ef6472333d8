package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisypull/internal/service"
)

// Config tunes a Coordinator. The zero value gets defaults from
// NewCoordinator.
type Config struct {
	// LeaseSeeds is the seed-range size per lease for nodes without a
	// throughput history; a node with a seeds/sec EWMA gets about a third of
	// a lease TTL of work, clamped to [1, 4×LeaseSeeds]. Smaller leases
	// spread a job wider and lose less to a node death; larger ones amortize
	// runner construction better. Default 8.
	LeaseSeeds int
	// LeaseTTL is how long a leased range may go without a heartbeat before
	// it is re-leased. Default 15s.
	LeaseTTL time.Duration
	// NodeTTL is how long a node may stay silent (no poll, heartbeat, or
	// result) before it is declared dead and its leases re-queued.
	// Default 10s.
	NodeTTL time.Duration
	// PollInterval is the idle-worker poll cadence advertised at
	// registration. Default 500ms.
	PollInterval time.Duration
	// HeartbeatInterval is the busy-worker heartbeat cadence advertised at
	// registration. Default LeaseTTL/3.
	HeartbeatInterval time.Duration
	// MaxLeaseAttempts caps how many times one seed range may be leased
	// before its job fails — the backstop against a lease that kills every
	// node that touches it. It also caps quorum escalations. Default 5.
	MaxLeaseAttempts int

	// VerifySeeds enables k-redundant quorum verification: each selected
	// seed range is leased to VerifySeeds distinct nodes and a seed is
	// admitted only once a majority (k/2+1) delivered attestation-identical
	// results. 0 or 1 disables verification (trust every worker, the
	// pre-Byzantine behavior).
	VerifySeeds int
	// VerifySample is the fraction of seed ranges verified when VerifySeeds
	// is active, selected deterministically from (fingerprint, first seed).
	// <= 0 or >= 1 verifies everything. Sampling trades detection latency
	// for throughput: a persistent liar still lands in a verified range
	// quickly, and one confirmed lie quarantines it.
	VerifySample float64
	// Probation is how long a quarantined node is refused leases before it
	// may earn its way back. Default 2m.
	Probation time.Duration
	// Secret, when set, requires every fleet RPC to carry a valid
	// HMAC-SHA256 of its body in the AuthHeader header (`-fleet-secret` on
	// every node). Empty serves unauthenticated, the pre-auth behavior.
	Secret string

	// Logf, if non-nil, receives fleet lifecycle lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeaseSeeds <= 0 {
		c.LeaseSeeds = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.NodeTTL <= 0 {
		c.NodeTTL = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTTL / 3
	}
	if c.MaxLeaseAttempts <= 0 {
		c.MaxLeaseAttempts = 5
	}
	if c.VerifySample <= 0 || c.VerifySample > 1 {
		c.VerifySample = 1
	}
	if c.Probation <= 0 {
		c.Probation = 2 * time.Minute
	}
	return c
}

// dispatch is one job in flight across the fleet: its lease set lives in
// the coordinator's lease table, its results accumulate in the order-free
// merge, and the scheduler goroutine blocked in Dispatch drains the
// released in-order prefix into the service (store, stream, journal).
//
// Seed ranges are cut lazily: backlog holds the seeds not yet leased, and a
// range is cut only when a polling node needs work — which is what lets the
// cut size follow the polling node's measured throughput instead of a fixed
// -lease-seeds.
type dispatch struct {
	job   service.DispatchJob
	merge *merge

	backlog []uint64 // seeds not yet cut into leases, spec order
	nextIdx int      // next lease id index

	// released holds merged results in seed order, not yet handed to the
	// scheduler; err/done is the terminal outcome. Guarded by the
	// coordinator mutex; notify (cap 1) wakes the Dispatch goroutine.
	released []service.SeedResult
	err      error
	done     bool
	notify   chan struct{}
}

func (d *dispatch) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// Coordinator is the fleet's control plane: node registry, lease table,
// per-job merges, and the wire protocol handlers. It implements
// service.Dispatcher, so a Service configured with it transparently fans
// every job's seed range out across registered workers.
type Coordinator struct {
	cfg Config

	mu          sync.Mutex
	reg         *registry
	lt          *leaseTable
	dispatches  map[string]*dispatch // by job id
	order       []*dispatch          // dispatch order; lazy cuts drain the oldest backlog first
	binding     Binding              // set once via Bind, before serving
	quarAdopted bool                 // journal-recovered quarantine re-applied

	stopOnce sync.Once
	stopCh   chan struct{}

	// Fleet-level counters (metrics.go renders them).
	releases   atomic.Int64 // ranges re-leased after expiry or node death
	merged     atomic.Int64 // per-seed results merged
	duplicates atomic.Int64 // idempotent duplicate results discarded
	failures   atomic.Int64 // dispatches failed (worker error or attempts cap)
	polls      atomic.Int64

	// Durability counters (lease journal, restart recovery).
	journaledLeases atomic.Int64 // lease grants journaled
	adopted         atomic.Int64 // leases re-adopted from the journal after a restart
	lateDeliveries  atomic.Int64 // results accepted on adopted leases
	redispatched    atomic.Int64 // already-delivered seeds freshly re-leased (must stay 0)
	abandoned       atomic.Int64 // leases abandoned at the attempt cap

	// Byzantine-tolerance counters.
	authFailures  atomic.Int64 // RPCs rejected by the shared-secret check
	attFailures   atomic.Int64 // deliveries rejected before merging (bad digest / out-of-lease seeds)
	agreements    atomic.Int64 // quorum votes matching the admitted payload
	disagreements atomic.Int64 // quorum votes outvoted by the majority
	quarantines   atomic.Int64 // quarantine events
	quarRejected  atomic.Int64 // RPCs refused because the node is quarantined
	escalations   atomic.Int64 // extra quorum replicas cut after a split vote
}

// Binding connects the coordinator to the service's durability layer:
// lease-lifecycle journaling, replay gating, and job-state lookups for
// deliveries that race a restart. *service.Service implements it; a nil
// binding (tests, journal-less daemons) disables all three.
//
// Lock order: the coordinator calls Binding methods while holding its own
// mutex, and the service methods take service locks — so service code must
// never call into the coordinator while holding s.mu (it doesn't: Dispatch
// and ExtraMetrics both run unlocked).
type Binding interface {
	// AppendLease journals one lease-lifecycle record.
	AppendLease(rec service.LeaseRecord)
	// Replayed reports whether journal replay has finished; until then the
	// wire answers 503 + Retry-After (handing out work that is about to be
	// adopted would recompute it).
	Replayed() bool
	// JobState resolves a job id to its current state, distinguishing "job
	// recovering, not yet re-dispatched" from "job gone".
	JobState(id string) (service.State, bool)
	// NodeRecords returns the replayed lease records that name no job
	// (quarantine, absolve), in journal order, so a lying node does not
	// regain leases just because the coordinator restarted.
	NodeRecords() []service.LeaseRecord
}

// Bind connects the service's durability layer. Call before the wire
// routes start serving.
func (c *Coordinator) Bind(b Binding) {
	c.mu.Lock()
	c.binding = b
	c.mu.Unlock()
}

// appendLeaseRec journals one lease-lifecycle record. Caller holds c.mu.
func (c *Coordinator) appendLeaseRec(op service.LeaseOp, l *lease, results []service.SeedResult) {
	if c.binding == nil {
		return
	}
	quorum := 0
	if l.group.need > 1 {
		quorum = l.group.need
	}
	c.binding.AppendLease(service.LeaseRecord{
		Op: op, Job: l.d.job.ID, Lease: l.id, Node: l.node,
		Seeds: l.seeds, Attempt: l.attempt, Results: results, Quorum: quorum,
	})
	if op == service.LeaseGrant {
		c.journaledLeases.Add(1)
	}
}

// NewCoordinator starts a coordinator, including its lease/node expiry
// loop. Stop it with Close.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:        cfg,
		reg:        newRegistry(cfg.NodeTTL),
		lt:         newLeaseTable(),
		dispatches: make(map[string]*dispatch),
		stopCh:     make(chan struct{}),
	}
	go c.expiryLoop()
	return c
}

// Close stops the background expiry loop. In-flight Dispatch calls are not
// interrupted — the service cancels their contexts during drain.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Dispatch implements service.Dispatcher: put the job's remaining seeds on
// the dispatch backlog (ranges are cut lazily as nodes poll), and block
// draining merged results — in seed order — into emit until the job
// completes, fails, or ctx is cancelled.
func (c *Coordinator) Dispatch(ctx context.Context, job service.DispatchJob, emit func(service.SeedResult)) error {
	if len(job.Seeds) == 0 {
		return nil
	}
	if job.Fingerprint == "" {
		job.Fingerprint = job.Spec.Fingerprint()
	}
	d := &dispatch{
		job:    job,
		merge:  newMerge(job.Seeds),
		notify: make(chan struct{}, 1),
	}

	// Fold in recovery state from the lease journal before accepting polls:
	// banked results go straight into the merge (already computed — never
	// again), and the crash's in-flight leases are re-adopted under their
	// original ids so their owners' heartbeats and late deliveries land on
	// live leases instead of being cancelled.
	banked, adopted := d.fold()
	preReleased, err := d.merge.preload(banked)
	if err != nil {
		return fmt.Errorf("fleet: job %s recovered banked results are inconsistent: %w", job.ID, err)
	}
	// Log before the dispatch is installed: polls then cut from d.backlog.
	if len(banked) > 0 || len(adopted) > 0 {
		c.logf("fleet: job %s dispatched: %d seeds (%d banked results, %d leases to adopt, %d on the backlog)",
			job.ID, len(job.Seeds), len(banked), len(adopted), len(d.backlog))
	} else {
		c.logf("fleet: job %s dispatched: %d seeds on the backlog", job.ID, len(job.Seeds))
	}

	c.mu.Lock()
	now := time.Now()
	for _, l := range adopted {
		if l.active {
			l.deadline = now.Add(c.cfg.LeaseTTL)
		}
	}
	c.lt.install(adopted)
	c.dispatches[job.ID] = d
	c.order = append(c.order, d)
	for _, l := range adopted {
		c.appendLeaseRec(service.LeaseGrant, l, nil)
	}
	c.adopted.Add(int64(len(adopted)))
	d.released = append(d.released, preReleased...)
	if d.merge.done() {
		d.done = true
	}
	if len(d.released) > 0 || d.done {
		d.wake()
	}
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.lt.dropJob(d)
		delete(c.dispatches, job.ID)
		for i, od := range c.order {
			if od == d {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.notify:
			c.mu.Lock()
			out := d.released
			d.released = nil
			done, err := d.done, d.err
			c.mu.Unlock()
			for _, sr := range out {
				emit(sr)
			}
			if done {
				return err
			}
		}
	}
}

// leaseSizeFor sizes the next range cut for a node: about a third of a
// lease TTL of work at the node's measured seeds/sec, clamped to
// [1, 4×LeaseSeeds]; nodes without a throughput history get the fixed
// LeaseSeeds default. Caller holds c.mu.
func (c *Coordinator) leaseSizeFor(nodeID string) int {
	n := c.reg.nodes[nodeID]
	if n == nil || n.rate <= 0 {
		return c.cfg.LeaseSeeds
	}
	m := int(n.rate * (c.cfg.LeaseTTL / 3).Seconds())
	return min(max(m, 1), 4*c.cfg.LeaseSeeds)
}

// sampleHit decides deterministically whether a seed range is quorum-
// verified under VerifySample, hashing (fingerprint, first seed) so the
// same job samples the same ranges on every coordinator.
func (c *Coordinator) sampleHit(fingerprint string, seed0 uint64) bool {
	if c.cfg.VerifySample >= 1 {
		return true
	}
	h := sha256.New()
	io.WriteString(h, fingerprint)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed0)
	h.Write(b[:])
	sum := h.Sum(nil)
	v := binary.LittleEndian.Uint64(sum[:8])
	return float64(v)/math.MaxUint64 < c.cfg.VerifySample
}

// grantLocked hands nodeID its next lease: the oldest eligible pending
// lease, or a fresh range cut from the oldest backlog. Nil when no work is
// available for this node. Caller holds c.mu.
func (c *Coordinator) grantLocked(nodeID string, now time.Time) *lease {
	deadline := now.Add(c.cfg.LeaseTTL)
	for {
		if l := c.lt.next(nodeID, deadline); l != nil {
			return l
		}
		if !c.cutLocked(nodeID) {
			return nil
		}
	}
}

// cutLocked cuts one seed range from the oldest dispatch with backlog into
// a seed group (quorum k when the range samples into verification, 1
// otherwise) and its leases, reporting whether anything was cut. Caller
// holds c.mu.
func (c *Coordinator) cutLocked(nodeID string) bool {
	for _, d := range c.order {
		if d.done || len(d.backlog) == 0 {
			continue
		}
		m := c.leaseSizeFor(nodeID)
		if m > len(d.backlog) {
			m = len(d.backlog)
		}
		seeds := d.backlog[:m:m]
		d.backlog = d.backlog[m:]
		for _, s := range seeds {
			if d.merge.admitted(s) {
				// Structurally unreachable (delivered seeds, banked ones
				// included, never reach the backlog); the counter exists so a
				// regression shows up in /metrics and the restart e2e, not in
				// silently burned CPU.
				c.redispatched.Add(1)
			}
		}
		k := 1
		if c.cfg.VerifySeeds >= 2 && c.sampleHit(d.job.Fingerprint, seeds[0]) {
			k = c.cfg.VerifySeeds
		}
		c.lt.fill(d, newSeedGroup(seeds, k))
		return true
	}
	return false
}

// fail marks a dispatch failed. Caller holds c.mu.
func (c *Coordinator) fail(d *dispatch, err error) {
	if d.done {
		return
	}
	d.err = err
	d.done = true
	c.failures.Add(1)
	c.lt.dropJob(d)
	d.wake()
}

// expiryLoop periodically re-queues leases whose deadline passed and the
// leases of nodes that went silent past NodeTTL.
func (c *Coordinator) expiryLoop() {
	interval := c.cfg.LeaseTTL / 4
	if n := c.cfg.NodeTTL / 4; n < interval {
		interval = n
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case now := <-ticker.C:
			c.sweep(now)
		}
	}
}

// sweep is one expiry pass: dead nodes first (their leases re-queue
// immediately, ahead of individual deadlines), then overdue leases.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.reg.sweep(now) {
		orphans := c.lt.activeOn(n.id)
		c.logf("fleet: node %s silent for %s, declared dead (%d leases re-queued)", n.id, c.cfg.NodeTTL, len(orphans))
		c.requeueAll(orphans, fmt.Sprintf("node %s died", n.id))
	}
	c.requeueAll(c.lt.expire(now), "lease deadline expired")
}

// requeueAll re-leases a batch, failing any job whose lease ran out of
// attempts. Caller holds c.mu.
func (c *Coordinator) requeueAll(ls []*lease, why string) {
	for _, l := range ls {
		if l.d.done {
			continue // a sibling lease already failed the job; its leases are dropped
		}
		if l.attempt+1 >= c.cfg.MaxLeaseAttempts {
			c.abandoned.Add(1)
			c.appendLeaseRec(service.LeaseAbandon, l, nil)
			c.fail(l.d, fmt.Errorf("fleet: lease %s (seeds %d..%d, %d of them) abandoned after %d attempts (last: %s)",
				l.id, l.seeds[0], l.seeds[len(l.seeds)-1], len(l.seeds), l.attempt+1, why))
			continue
		}
		c.releases.Add(1)
		c.logf("fleet: re-leasing %s (attempt %d, %s)", l.id, l.attempt+1, why)
		c.lt.requeue(l, true)
		c.appendLeaseRec(service.LeaseRequeue, l, nil)
	}
}

// quarantineLocked puts a node in quarantine: journal the event, stop
// leasing to it, and re-queue its active leases without blame (the leases
// did nothing wrong — their attempt counts stay). Caller holds c.mu.
func (c *Coordinator) quarantineLocked(n *node, now time.Time, reason string) {
	n.quarUntil = now.Add(c.cfg.Probation)
	n.quarantines++
	c.quarantines.Add(1)
	if c.binding != nil {
		c.binding.AppendLease(service.LeaseRecord{Op: service.LeaseQuarantine, Node: n.id, Reason: reason})
	}
	c.logf("fleet: node %s QUARANTINED for %s: %s", n.id, c.cfg.Probation, reason)
	for _, l := range c.lt.activeOn(n.id) {
		if l.d.done {
			continue
		}
		c.logf("fleet: re-queueing %s (owner %s quarantined)", l.id, n.id)
		c.lt.requeue(l, false)
		c.appendLeaseRec(service.LeaseRequeue, l, nil)
	}
}

// maybeQuarantineLocked quarantines n if its attestation-failure EWMA
// crossed the threshold. Caller holds c.mu.
func (c *Coordinator) maybeQuarantineLocked(n *node, now time.Time, reason string) {
	if n.quarantined(now) || n.attFailEWMA < quarantineThreshold {
		return
	}
	c.quarantineLocked(n, now, reason)
}

// quarCheckLocked reports whether the node is currently quarantined,
// absolving it first if probation has elapsed (halving — not zeroing — its
// failure EWMA, so a repeat offender re-quarantines faster than a fresh
// node). Caller holds c.mu.
func (c *Coordinator) quarCheckLocked(n *node, now time.Time) bool {
	if n.quarUntil.IsZero() {
		return false
	}
	if now.Before(n.quarUntil) {
		return true
	}
	n.quarUntil = time.Time{}
	n.attFailEWMA /= 2
	if c.binding != nil {
		c.binding.AppendLease(service.LeaseRecord{Op: service.LeaseAbsolve, Node: n.id})
	}
	c.logf("fleet: node %s finished probation, absolved", n.id)
	return false
}

// adoptQuarantineLocked re-applies journal-recovered quarantine once, on
// the first wire contact after replay: quarantined nodes get a fresh
// probation window from the restart (the journal records no clock) and a
// failure EWMA at the threshold, so one more offense re-quarantines them.
// Caller holds c.mu.
func (c *Coordinator) adoptQuarantineLocked(now time.Time) {
	if c.quarAdopted {
		return
	}
	if c.binding == nil {
		c.quarAdopted = true
		return
	}
	c.quarAdopted = true
	for id, reason := range foldQuarantine(c.binding.NodeRecords()) {
		n := c.reg.ensure(id, now)
		n.quarUntil = now.Add(c.cfg.Probation)
		if n.attFailEWMA < quarantineThreshold {
			n.attFailEWMA = quarantineThreshold
		}
		c.logf("fleet: node %s quarantine re-adopted from the journal (%s)", id, reason)
	}
}

// scoreVerdictsLocked folds quorum verdicts into node reputation,
// quarantining nodes the majority outvoted. Caller holds c.mu.
func (c *Coordinator) scoreVerdictsLocked(d *dispatch, verdicts []verdict, now time.Time) {
	for _, v := range verdicts {
		n := c.reg.ensure(v.node, now)
		if v.agree {
			c.agreements.Add(1)
			n.recordAgree()
			continue
		}
		c.disagreements.Add(1)
		n.recordDisagree()
		c.logf("fleet: node %s outvoted on seed %d of job %s (disagreements=%d, ewma=%.2f)",
			v.node, v.seed, d.job.ID, n.disagree, n.attFailEWMA)
		c.maybeQuarantineLocked(n, now, fmt.Sprintf("delivered a result for seed %d of job %s that the quorum rejected", v.seed, d.job.ID))
	}
}

// Routes mounts the wire protocol on mux. The signature matches the
// daemon's Routes hook, so cmd/simd passes it straight through.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	c.RoutesWith(mux, nil)
}

// RoutesWith mounts the wire protocol with every fleet handler wrapped by
// mw — how -chaos-spec scopes server-side fault injection to the fleet
// endpoints without touching the job API. Nil mw mounts the handlers bare.
// The shared-secret check sits inside mw: injected chaos hits the wire
// before authentication, exactly like a real middlebox would.
func (c *Coordinator) RoutesWith(mux *http.ServeMux, mw func(http.Handler) http.Handler) {
	wrap := func(h http.HandlerFunc) http.Handler {
		h = c.requireAuth(h)
		if mw == nil {
			return h
		}
		if wrapped := mw(h); wrapped != nil {
			return wrapped
		}
		return h
	}
	mux.Handle("POST "+PathRegister, wrap(c.handleRegister))
	mux.Handle("POST "+PathPoll, wrap(c.handlePoll))
	mux.Handle("POST "+PathHeartbeat, wrap(c.handleHeartbeat))
	mux.Handle("POST "+PathResult, wrap(c.handleResult))
}

// errUnauthorized is the 401 body for a missing or wrong fleet secret.
var errUnauthorized = errors.New("fleet: missing or invalid " + AuthHeader + " signature")

// requireAuth wraps a fleet handler with the shared-secret HMAC check when
// Config.Secret is set: the body is read once, verified in constant time
// against the AuthHeader tag, and replayed to the handler. No secret, no
// check — the wrapper is the identity.
func (c *Coordinator) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	if c.cfg.Secret == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBytes))
		if err != nil {
			writeWireError(w, http.StatusBadRequest, err)
			return
		}
		if !VerifyAuth(c.cfg.Secret, r.Header.Get(AuthHeader), data) {
			c.authFailures.Add(1)
			writeWireError(w, http.StatusUnauthorized, errUnauthorized)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(data))
		h(w, r)
	}
}

// errReplaying is the 503 body served while journal replay rebuilds lease
// state ("not ready" keys the client's ErrNotReady mapping).
var errReplaying = errors.New("fleet: coordinator not ready, journal replay in progress")

// notReady answers 503 + Retry-After while journal replay is still
// running: granting leases or judging deliveries before the recovered jobs
// re-dispatch would recompute work that is about to be adopted.
func (c *Coordinator) notReady(w http.ResponseWriter) bool {
	c.mu.Lock()
	b := c.binding
	c.mu.Unlock()
	if b == nil || b.Replayed() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeWireError(w, http.StatusServiceUnavailable, errReplaying)
	return true
}

// jobOfLease recovers the job id embedded in a coordinator-assigned lease
// id ("l-<job>-<n>"); "" if the id has a foreign shape.
func jobOfLease(leaseID string) string {
	s, ok := strings.CutPrefix(leaseID, "l-")
	if !ok {
		return ""
	}
	i := strings.LastIndexByte(s, '-')
	if i <= 0 {
		return ""
	}
	return s[:i]
}

// leaseIndex recovers the numeric suffix of one of jobID's lease ids.
func leaseIndex(jobID, leaseID string) (int, bool) {
	s, ok := strings.CutPrefix(leaseID, "l-"+jobID+"-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// awaitingAdoption reports whether leaseID belongs to a job that is
// recovering (known to the service, non-terminal) but not yet re-dispatched
// here — the window between journal replay and the scheduler re-running the
// job. Caller holds c.mu.
func (c *Coordinator) awaitingAdoption(leaseID string) bool {
	if c.binding == nil {
		return false
	}
	jobID := jobOfLease(leaseID)
	if jobID == "" {
		return false
	}
	if _, dispatched := c.dispatches[jobID]; dispatched {
		return false // job live here; an unknown lease is genuinely stale
	}
	st, known := c.binding.JobState(jobID)
	return known && !st.Terminal()
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBytes))
	if err != nil {
		writeWireError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return data, true
}

// writeWireJSON / writeWireError mirror the service handlers' envelope (the
// {"error": ...} body is what service.Client's apiError parses), keeping the
// fleet endpoints indistinguishable from the rest of the API surface.
func writeWireJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeWireError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]string{"error": err.Error()})
}

// errUnknownNode is the 404 body workers key their re-registration on.
var errUnknownNode = errors.New("fleet: unknown node, re-register")

// errQuarantined is the 403 body for RPCs from a quarantined node.
var errQuarantined = errors.New("fleet: node is quarantined")

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRegister(data)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	n := c.reg.register(req, time.Now())
	c.mu.Unlock()
	c.logf("fleet: node %s registered (version=%q gomaxprocs=%d slots=%d)", n.id, req.Version, req.GoMaxProcs, req.Slots)
	writeWireJSON(w, RegisterResponse{
		NodeID:      n.id,
		PollMS:      c.cfg.PollInterval.Milliseconds(),
		HeartbeatMS: c.cfg.HeartbeatInterval.Milliseconds(),
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	if c.notReady(w) {
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodePoll(data)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, err)
		return
	}
	c.polls.Add(1)
	now := time.Now()
	c.mu.Lock()
	c.adoptQuarantineLocked(now)
	n := c.reg.touch(req.NodeID, now)
	if n == nil {
		c.mu.Unlock()
		writeWireError(w, http.StatusNotFound, errUnknownNode)
		return
	}
	var resp PollResponse
	if c.quarCheckLocked(n, now) {
		// A quarantined node keeps its liveness (touch above) but gets no
		// work; it heals through this same path once probation elapses.
		c.mu.Unlock()
		writeWireJSON(w, resp)
		return
	}
	l := c.grantLocked(req.NodeID, now)
	if l != nil {
		c.appendLeaseRec(service.LeaseGrant, l, nil)
		resp.Lease = &WireLease{
			ID:          l.id,
			Job:         l.d.job.ID,
			Fingerprint: l.d.job.Fingerprint,
			Spec:        l.d.job.Spec,
			Seeds:       l.seeds,
			Attempt:     l.attempt,
		}
		resp.Lease.Seal()
	}
	c.mu.Unlock()
	writeWireJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if c.notReady(w) {
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeHeartbeat(data)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, err)
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.adoptQuarantineLocked(now)
	n := c.reg.touch(req.NodeID, now)
	if n == nil {
		// A heartbeat carries enough to re-describe the node, so a
		// coordinator restart (empty registry) heals on the next beat
		// instead of bouncing every worker through register.
		n = c.reg.register(&RegisterRequest{
			NodeID: req.NodeID, Version: req.Version,
			GoMaxProcs: req.GoMaxProcs, Slots: req.Slots,
		}, now)
	} else if req.Version != "" {
		n.version = req.Version
		if req.GoMaxProcs > 0 {
			n.gomaxprocs = req.GoMaxProcs
		}
		if req.Slots > 0 {
			n.slots = req.Slots
		}
	}
	cancel := c.lt.renew(req.NodeID, req.Leases, now.Add(c.cfg.LeaseTTL))
	if len(cancel) > 0 {
		// Grace for the replay→re-dispatch window: a lease the table doesn't
		// know but whose job is still recovering is about to be adopted —
		// cancelling it would abort a worker mid-computation and force a
		// recompute, exactly what the lease journal exists to prevent.
		kept := cancel[:0]
		for _, id := range cancel {
			if c.awaitingAdoption(id) {
				continue
			}
			kept = append(kept, id)
		}
		cancel = kept
	}
	c.mu.Unlock()
	writeWireJSON(w, HeartbeatResponse{Cancel: cancel})
}

// errAwaitingAdoption is the 503 body for a delivery whose lease belongs
// to a job that is recovering but not yet re-dispatched; the worker's
// spool redelivers after adoption ("not ready" keys ErrNotReady).
var errAwaitingAdoption = errors.New("fleet: job not ready, lease adoption in progress")

// deliveryFault validates a delivery's payload against its lease: the
// results must cover exactly the leased seeds (DecodeResult already
// rejected duplicates, so length plus membership implies exactness). A
// violation is a node fault, not a job failure — honest workers echo the
// lease's own seed list, so only corruption (caught earlier by checksums)
// or a lying peer produces one.
func deliveryFault(l *lease, req *ResultRequest) error {
	if len(req.Results) != len(l.seeds) {
		return fmt.Errorf("fleet: lease %s delivered %d results for %d leased seeds", l.id, len(req.Results), len(l.seeds))
	}
	in := make(map[uint64]bool, len(l.seeds))
	for _, s := range l.seeds {
		in[s] = true
	}
	for i := range req.Results {
		if !in[req.Results[i].Seed] {
			return fmt.Errorf("fleet: lease %s delivered a result for seed %d outside its range", l.id, req.Results[i].Seed)
		}
	}
	return nil
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if c.notReady(w) {
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeResult(data)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, err)
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.adoptQuarantineLocked(now)
	n := c.reg.touch(req.NodeID, now)
	if n == nil {
		c.mu.Unlock()
		writeWireError(w, http.StatusNotFound, errUnknownNode)
		return
	}
	if c.quarCheckLocked(n, now) {
		// Nothing a quarantined node says is admissible — not even as a
		// quorum vote. Its spool will redeliver after probation, where the
		// delivery lands as a late duplicate or a fresh vote.
		c.quarRejected.Add(1)
		c.mu.Unlock()
		writeWireError(w, http.StatusForbidden, errQuarantined)
		return
	}
	l := c.lt.get(req.LeaseID)
	if l == nil || l.d.done {
		if l == nil && c.awaitingAdoption(req.LeaseID) {
			// The lease will exist again once the recovered job re-dispatches;
			// acking now as a duplicate would discard computed results.
			c.mu.Unlock()
			w.Header().Set("Retry-After", "1")
			writeWireError(w, http.StatusServiceUnavailable, errAwaitingAdoption)
			return
		}
		// Already merged via a re-lease, or the job is gone: idempotent OK.
		c.duplicates.Add(int64(len(req.Results)))
		c.mu.Unlock()
		writeWireJSON(w, ResultResponse{Duplicates: len(req.Results)})
		return
	}
	d := l.d
	if req.Error != "" {
		// Execution errors are deterministic functions of (config, seed) —
		// re-leasing would fail identically on any node, so the job fails.
		// (Known limitation: this trusts the reporter; a Byzantine worker can
		// fail a job it holds a lease for. Quorum protects result integrity,
		// not availability — see DESIGN.)
		c.lt.complete(req.LeaseID)
		c.fail(d, fmt.Errorf("fleet: lease %s failed on node %s: %s", l.id, req.NodeID, req.Error))
		c.mu.Unlock()
		writeWireJSON(w, ResultResponse{})
		return
	}
	if fault := deliveryFault(l, req); fault != nil {
		// The payload does not match the lease: a node fault. The lease stays
		// live (its deadline will re-lease it to someone else), the node's
		// reputation takes the hit.
		c.nodeFaultLocked(n, now, fault)
		c.mu.Unlock()
		writeWireError(w, http.StatusBadRequest, fault)
		return
	}
	// The coordinator attests every payload itself; a worker-claimed digest
	// that disagrees with the payload it arrived with is a fault (this is
	// what catches stale-fingerprint replays immediately — the claimed
	// digests were computed over the wrong fingerprint).
	digests := AttestAll(req.Results, d.job.Fingerprint, req.Build)
	if len(req.Atts) == len(digests) {
		for i := range digests {
			if req.Atts[i] != digests[i] {
				fault := fmt.Errorf("fleet: lease %s: node %s attested seed %d as %s but its payload digests to %s",
					l.id, req.NodeID, req.Results[i].Seed, req.Atts[i], digests[i])
				c.nodeFaultLocked(n, now, fault)
				c.mu.Unlock()
				writeWireError(w, http.StatusBadRequest, fault)
				return
			}
		}
	}
	c.lt.complete(req.LeaseID)
	g := l.group
	g.voted[req.NodeID] = true
	g.delivered++
	out, mergeErr := d.merge.add(req.NodeID, req.Results, digests, g.need)
	if mergeErr != nil {
		// deliveryFault checked membership, so this is an internal invariant
		// violation, not peer input — fail loudly.
		c.fail(d, mergeErr)
		c.mu.Unlock()
		writeWireJSON(w, ResultResponse{})
		return
	}
	c.scoreVerdictsLocked(d, out.verdicts, now)
	if len(out.fresh) > 0 {
		// Journal before acking: an acked delivery must survive a coordinator
		// crash without recomputing, even while it sits in the merge ahead of
		// the released prefix.
		c.appendLeaseRec(service.LeaseResult, l, out.fresh)
	}
	if l.recovered {
		c.lateDeliveries.Add(int64(len(out.fresh)))
	}
	c.merged.Add(int64(len(out.fresh)))
	c.duplicates.Add(int64(out.dups))
	n.recordResult(len(req.Results), now)
	if !d.done {
		c.settleGroupLocked(d, g, now)
	}
	d.released = append(d.released, out.released...)
	if d.merge.done() {
		d.done = true
	}
	if len(out.released) > 0 || d.done {
		d.wake()
	}
	c.mu.Unlock()
	writeWireJSON(w, ResultResponse{Merged: len(out.fresh), Duplicates: out.dups})
}

// nodeFaultLocked scores a delivery rejected before merging (out-of-lease
// payload, digest self-check failure) against the node. Caller holds c.mu.
func (c *Coordinator) nodeFaultLocked(n *node, now time.Time, fault error) {
	c.attFailures.Add(1)
	n.recordAttFail()
	c.logf("fleet: delivery from node %s rejected: %v (att failures=%d, ewma=%.2f)", n.id, fault, n.attFails, n.attFailEWMA)
	c.maybeQuarantineLocked(n, now, fault.Error())
}

// settleGroupLocked settles a replica group after a delivery: a fully
// admitted range drops its leftover pending replicas, and a quorum range
// whose replicas all delivered without reaching a majority escalates — want
// rises by one replica per round, capped at MaxLeaseAttempts, then the job
// fails loudly (a fleet that cannot agree must not guess). Caller holds
// c.mu.
func (c *Coordinator) settleGroupLocked(d *dispatch, g *seedGroup, now time.Time) {
	all := true
	for _, s := range g.seeds {
		if !d.merge.admitted(s) {
			all = false
			break
		}
	}
	if all {
		c.lt.dropGroupPending(g)
		return
	}
	if g.need <= 1 || g.delivered < g.replicas {
		return
	}
	if g.escalations+1 >= c.cfg.MaxLeaseAttempts || !c.anyEligibleLocked(g, now) {
		c.fail(d, fmt.Errorf("fleet: quorum unresolved for seeds %d..%d of job %s: %d replicas delivered without %d matching attestations (mixed builds or multiple liars)",
			g.seeds[0], g.seeds[len(g.seeds)-1], d.job.ID, g.replicas, g.need))
		return
	}
	g.escalations++
	g.want++
	extra := c.lt.fill(d, g)
	c.escalations.Add(1)
	c.logf("fleet: quorum split on seeds %d..%d of job %s, escalating with replica %s (%d/%d votes)",
		g.seeds[0], g.seeds[len(g.seeds)-1], d.job.ID, extra[0].id, g.delivered, g.need)
}

// anyEligibleLocked reports whether any known alive, unquarantined node
// could still vote on the group — escalating past that point would queue a
// replica no one may take. Caller holds c.mu.
func (c *Coordinator) anyEligibleLocked(g *seedGroup, now time.Time) bool {
	for id, n := range c.reg.nodes {
		if n.alive && !n.quarantined(now) && !g.voted[id] && g.holding[id] == 0 {
			return true
		}
	}
	return false
}

// Nodes snapshots the registry (tests, introspection).
func (c *Coordinator) Nodes() []NodeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.snapshot(time.Now())
}
