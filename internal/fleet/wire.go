// Package fleet turns the simd daemon into a horizontally shardable fleet.
//
// The paper's protocols are deterministic functions of (config, seed), so a
// distributed run never ships population data: the coordinator splits a
// job's seed list into leases and hands each worker node only
// (fingerprint, spec, seed range) — the worker regenerates all randomness
// locally from the seeds, exactly the seeds-not-data idiom of distributed
// ES fleets. Determinism also makes the merge order-free and idempotent:
// per-seed results are equal no matter which node computed them or how many
// times, so re-leasing a range from a dead or slow node is always safe.
//
// The subsystem has two halves. Coordinator owns the node registry, the
// lease table with deadlines, and the per-job order-free merge; it plugs
// into the service scheduler as a service.Dispatcher, which keeps queueing,
// backpressure, journaling, crash recovery, and progress streams identical
// to the single-node path. Worker is the pull side: it registers, polls for
// leases, executes them on local runners, heartbeats while busy, and posts
// results back.
//
// This file is the wire protocol: four POST endpoints under /fleet/v1/
// (register, poll, heartbeat, result) with small JSON bodies, each carrying
// a body HMAC (auth.go), plus the strict decode functions both sides use —
// the fuzzed surface of the protocol. Unknown JSON fields are tolerated
// (mixed-version fleets must be able to talk before they can be diagnosed
// via the version rows in /metrics); value validation is strict.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"noisypull/internal/service"
)

// Wire protocol paths, relative to the coordinator's base URL.
const (
	PathRegister  = "/fleet/v1/register"
	PathPoll      = "/fleet/v1/poll"
	PathHeartbeat = "/fleet/v1/heartbeat"
	PathResult    = "/fleet/v1/result"
)

// Wire size bounds. Requests beyond maxWireBytes are rejected before
// decoding; a lease or result naming more than maxLeaseSeeds seeds is
// structurally invalid (the coordinator never creates one).
const (
	maxWireBytes  = 8 << 20
	maxLeaseSeeds = 1 << 16
	maxNodeID     = 128
	maxLeaseIDs   = 4096
)

// RegisterRequest announces a worker node to the coordinator (an upsert —
// re-registering after a restart with the same id revives the node).
// Version and GoMaxProcs ride along so mixed-version fleets are diagnosable
// from the coordinator's /metrics per-node rows.
type RegisterRequest struct {
	// NodeID is the node's stable identity. Empty lets the coordinator
	// assign one.
	NodeID string `json:"node_id,omitempty"`
	// Version is the worker binary's buildinfo version string.
	Version string `json:"version"`
	// GoMaxProcs is the worker's runtime.GOMAXPROCS(0).
	GoMaxProcs int `json:"gomaxprocs"`
	// Slots is how many leases the node runs concurrently.
	Slots int `json:"slots"`
}

// RegisterResponse assigns the node its id and advertises the coordinator's
// cadence: how often to poll when idle, how often to heartbeat while busy,
// and the lease deadline heartbeats must keep renewing.
type RegisterResponse struct {
	NodeID      string `json:"node_id"`
	PollMS      int64  `json:"poll_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
}

// PollRequest asks for work. A poll also counts as node liveness contact.
type PollRequest struct {
	NodeID string `json:"node_id"`
}

// PollResponse carries at most one lease; nil means no work is pending.
type PollResponse struct {
	Lease *WireLease `json:"lease,omitempty"`
}

// WireLease is one unit of fanned-out work: a seed range of one job, plus
// the spec to rebuild the engine from and the fingerprint that pins the
// config identity. Workers recompute the fingerprint from the spec and
// reject a mismatch — wire corruption or a mixed-version fleet whose spec
// semantics drifted fails loudly instead of merging results from a
// different configuration.
type WireLease struct {
	ID          string          `json:"id"`
	Job         string          `json:"job"`
	Fingerprint string          `json:"fingerprint"`
	Spec        service.JobSpec `json:"spec"`
	Seeds       []uint64        `json:"seeds"`
	// Attempt counts prior leases of this range (0 = first); re-leases after
	// node loss increment it.
	Attempt int `json:"attempt"`
	// Sum is an end-to-end integrity checksum over the lease's identifying
	// fields (id, job, fingerprint, attempt, seeds); the coordinator seals
	// every lease it grants. Poll responses carry no body HMAC, so Sum is
	// what defends the seed range against in-flight corruption that yields
	// parseable-but-wrong JSON (a buggy middlebox). The fingerprint already
	// pins the spec.
	Sum string `json:"sum"`
}

// checksum computes the lease's integrity sum. The spec is covered
// indirectly: Validate independently requires Fingerprint to match it.
func (wl *WireLease) checksum() string {
	h := sha256.New()
	var buf [8]byte
	field := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	field(wl.ID)
	field(wl.Job)
	field(wl.Fingerprint)
	binary.LittleEndian.PutUint64(buf[:], uint64(wl.Attempt))
	h.Write(buf[:])
	for _, s := range wl.Seeds {
		binary.LittleEndian.PutUint64(buf[:], s)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Seal stamps the integrity checksum; the coordinator calls it on every
// lease it puts on the wire.
func (wl *WireLease) Seal() { wl.Sum = wl.checksum() }

// ErrLeaseChecksum marks a lease whose wire checksum failed or is
// missing: in-flight corruption, not config drift. Workers drop such a
// lease silently — its deadline re-leases the range and a clean copy
// arrives on a later poll — instead of failing the job the way a
// fingerprint mismatch does.
var ErrLeaseChecksum = errors.New("fleet: lease checksum mismatch (wire corruption)")

// HeartbeatRequest is the busy-node liveness signal. Leases lists the lease
// ids the node is still executing; the coordinator renews their deadlines.
// Version/GoMaxProcs repeat the registration payload so a node that
// restarted under the same id (possibly as a different binary) is
// re-described without an explicit re-register.
type HeartbeatRequest struct {
	NodeID     string   `json:"node_id"`
	Version    string   `json:"version,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Slots      int      `json:"slots,omitempty"`
	Leases     []string `json:"leases,omitempty"`
}

// HeartbeatResponse tells the node which of its running leases to abort:
// ranges that were re-leased elsewhere (the node was presumed dead or too
// slow) or whose job was cancelled.
type HeartbeatResponse struct {
	Cancel []string `json:"cancel,omitempty"`
}

// ResultRequest delivers a finished lease: one SeedResult per leased seed,
// or an execution error (spec no longer builds, fingerprint mismatch,
// engine failure — all deterministic, so the coordinator fails the job
// rather than re-leasing). Delivery is idempotent: the merge deduplicates
// by seed, so retrying after a lost response is harmless.
type ResultRequest struct {
	NodeID  string               `json:"node_id"`
	LeaseID string               `json:"lease_id"`
	Error   string               `json:"error,omitempty"`
	Results []service.SeedResult `json:"results,omitempty"`
	// Build is the worker binary's buildinfo version, repeated on every
	// delivery because attestation digests cover it: two nodes running
	// different builds intentionally cannot vouch for each other's results
	// in a quorum.
	Build string `json:"build,omitempty"`
	// Atts carries exactly one attestation digest per entry of Results (same
	// order): Attest(result, fingerprint, build). The coordinator recomputes
	// every digest from the payload itself — a claimed digest that does not
	// match is an attestation fault, and the recomputed digests are what
	// quorum verification compares across nodes.
	Atts []string `json:"atts,omitempty"`
}

// ResultResponse reports what the merge did with the delivery.
type ResultResponse struct {
	Merged     int `json:"merged"`
	Duplicates int `json:"duplicates"`
}

// validNodeID restricts node ids to a charset safe for logs and Prometheus
// label values.
func validNodeID(id string) error {
	if id == "" {
		return fmt.Errorf("fleet: empty node id")
	}
	if len(id) > maxNodeID {
		return fmt.Errorf("fleet: node id longer than %d bytes", maxNodeID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.', c == ':', c == '@', c == '/':
		default:
			return fmt.Errorf("fleet: node id contains %q (allowed: alphanumerics and -_.:@/)", c)
		}
	}
	return nil
}

// validLeaseID checks the shape of a lease id (coordinator-assigned,
// "l-<job>-<n>" style, but only the charset is enforced so the format can
// evolve).
func validLeaseID(id string) error {
	if id == "" {
		return fmt.Errorf("fleet: empty lease id")
	}
	if len(id) > maxNodeID {
		return fmt.Errorf("fleet: lease id longer than %d bytes", maxNodeID)
	}
	return validNodeID(id)
}

// validSeeds rejects empty, oversized, and duplicate-bearing seed lists —
// the coordinator never issues such a lease, so receiving one means
// corruption or a buggy peer.
func validSeeds(seeds []uint64) error {
	if len(seeds) == 0 {
		return fmt.Errorf("fleet: lease with no seeds")
	}
	if len(seeds) > maxLeaseSeeds {
		return fmt.Errorf("fleet: %d seeds exceed the per-lease limit %d", len(seeds), maxLeaseSeeds)
	}
	seen := make(map[uint64]struct{}, len(seeds))
	for _, s := range seeds {
		if _, dup := seen[s]; dup {
			return fmt.Errorf("fleet: duplicate seed %d in lease", s)
		}
		seen[s] = struct{}{}
	}
	return nil
}

func decodeInto(data []byte, v any) error {
	if len(data) > maxWireBytes {
		return fmt.Errorf("fleet: %d-byte message exceeds the %d-byte wire limit", len(data), maxWireBytes)
	}
	return json.Unmarshal(data, v)
}

// DecodeRegister parses and validates a registration body.
func DecodeRegister(data []byte) (*RegisterRequest, error) {
	var req RegisterRequest
	if err := decodeInto(data, &req); err != nil {
		return nil, err
	}
	if req.NodeID != "" {
		if err := validNodeID(req.NodeID); err != nil {
			return nil, err
		}
	}
	if req.GoMaxProcs < 0 || req.Slots < 0 {
		return nil, fmt.Errorf("fleet: negative gomaxprocs/slots in registration")
	}
	if len(req.Version) > 256 {
		return nil, fmt.Errorf("fleet: version string longer than 256 bytes")
	}
	return &req, nil
}

// DecodePoll parses and validates a poll body.
func DecodePoll(data []byte) (*PollRequest, error) {
	var req PollRequest
	if err := decodeInto(data, &req); err != nil {
		return nil, err
	}
	if err := validNodeID(req.NodeID); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeHeartbeat parses and validates a heartbeat body.
func DecodeHeartbeat(data []byte) (*HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := decodeInto(data, &req); err != nil {
		return nil, err
	}
	if err := validNodeID(req.NodeID); err != nil {
		return nil, err
	}
	if req.GoMaxProcs < 0 || req.Slots < 0 {
		return nil, fmt.Errorf("fleet: negative gomaxprocs/slots in heartbeat")
	}
	if len(req.Leases) > maxLeaseIDs {
		return nil, fmt.Errorf("fleet: heartbeat lists %d leases (limit %d)", len(req.Leases), maxLeaseIDs)
	}
	for _, id := range req.Leases {
		if err := validLeaseID(id); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// DecodeResult parses and validates a result delivery. Per-seed uniqueness
// is enforced here; membership in the lease's seed range is the merge's job
// (the decoder does not know the lease).
func DecodeResult(data []byte) (*ResultRequest, error) {
	var req ResultRequest
	if err := decodeInto(data, &req); err != nil {
		return nil, err
	}
	if err := validNodeID(req.NodeID); err != nil {
		return nil, err
	}
	if err := validLeaseID(req.LeaseID); err != nil {
		return nil, err
	}
	if len(req.Results) > maxLeaseSeeds {
		return nil, fmt.Errorf("fleet: %d results exceed the per-lease limit %d", len(req.Results), maxLeaseSeeds)
	}
	if req.Error == "" && len(req.Results) == 0 {
		return nil, fmt.Errorf("fleet: result delivery with neither results nor an error")
	}
	seen := make(map[uint64]struct{}, len(req.Results))
	for _, r := range req.Results {
		if _, dup := seen[r.Seed]; dup {
			return nil, fmt.Errorf("fleet: duplicate seed %d in result delivery", r.Seed)
		}
		seen[r.Seed] = struct{}{}
	}
	if len(req.Build) > 256 {
		return nil, fmt.Errorf("fleet: build string longer than 256 bytes")
	}
	if len(req.Atts) != len(req.Results) {
		return nil, fmt.Errorf("fleet: %d attestations for %d results", len(req.Atts), len(req.Results))
	}
	for _, a := range req.Atts {
		if err := validAttestation(a); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// Validate checks a lease as a worker receives it inside a PollResponse:
// checksum, ids, seed list, a spec that builds, and a fingerprint that
// matches the spec — the worker-side gate against config drift. The
// checksum runs first, and an unsealed lease fails it, so corruption is
// classified as ErrLeaseChecksum even when it also broke a structural
// invariant.
func (wl *WireLease) Validate() error {
	if wl.Sum != wl.checksum() {
		return fmt.Errorf("%w: lease %q", ErrLeaseChecksum, wl.ID)
	}
	if err := validLeaseID(wl.ID); err != nil {
		return err
	}
	if wl.Job == "" || len(wl.Job) > maxNodeID {
		return fmt.Errorf("fleet: lease %s has a bad job id", wl.ID)
	}
	if err := validSeeds(wl.Seeds); err != nil {
		return err
	}
	if wl.Attempt < 0 {
		return fmt.Errorf("fleet: lease %s has negative attempt %d", wl.ID, wl.Attempt)
	}
	if got := wl.Spec.Fingerprint(); got != wl.Fingerprint {
		return fmt.Errorf("fleet: lease %s fingerprint %s does not match its spec (%s) — wire corruption or mixed-version config drift", wl.ID, wl.Fingerprint, got)
	}
	if _, err := wl.Spec.Build(); err != nil {
		return fmt.Errorf("fleet: lease %s spec does not build: %w", wl.ID, err)
	}
	return nil
}
