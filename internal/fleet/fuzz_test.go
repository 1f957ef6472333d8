package fleet

// FuzzFleetWireDecode hammers the fleet's decode surface: every byte
// sequence a peer can POST to /fleet/v1/*, and every poll response a worker
// can receive, must either fail validation cleanly or produce a
// structurally sound message — never panic, and never smuggle a node id
// that could break logs or /metrics label values. CI runs this briefly with
// -fuzz as a smoke test; the seed corpus alone runs under plain `go test`.

import (
	"encoding/json"
	"strings"
	"testing"
)

func FuzzFleetWireDecode(f *testing.F) {
	poll := func(wl WireLease) string {
		data, err := json.Marshal(PollResponse{Lease: &wl})
		if err != nil {
			f.Fatal(err)
		}
		return string(data)
	}
	sealed := testLease()
	unsealed := sealed
	unsealed.Sum = ""
	seeds := []string{
		`{}`,
		`{"node_id":"wa","version":"v1.2.3","gomaxprocs":8,"slots":4}`,
		`{"node_id":"wa"}`,
		`{"node_id":"wa","leases":["l-j-000001-000","l-j-000001-001"]}`,
		`{"node_id":"wa","lease_id":"l-j-000001-000","error":"boom"}`,
		`{"node_id":"evil\"}injection","lease_id":"l-1"}`,
		`{"node_id":"wa","lease_id":"l-1","results":[{"seed":1},{"seed":1}]}`,
		// Attested deliveries: a good envelope, an att-count mismatch, a
		// non-hex digest, a wrong-length digest, and an oversized build tag.
		`{"node_id":"wa","lease_id":"l-1","build":"simd dev (go1.24)","results":[{"seed":1}],"atts":["0123456789abcdef"]}`,
		`{"node_id":"wa","lease_id":"l-1","results":[{"seed":1},{"seed":2}],"atts":["0123456789abcdef"]}`,
		`{"node_id":"wa","lease_id":"l-1","results":[{"seed":1}],"atts":["GHIJKLMNOPQRSTUV"]}`,
		`{"node_id":"wa","lease_id":"l-1","results":[{"seed":1}],"atts":["0123"]}`,
		`{"node_id":"wa","lease_id":"l-1","build":"` + strings.Repeat("x", 300) + `","results":[{"seed":1}],"atts":["0123456789abcdef"]}`,
		// Deliveries without attestations: rejected.
		`{"node_id":"wa","lease_id":"l-j-000001-000","results":[{"seed":1,"rounds":10,"converged":true}]}`,
		`{"node_id":"wa","lease_id":"l-1","build":"simd dev (go1.24)","results":[{"seed":1},{"seed":2}]}`,
		// Poll responses: an empty one, a sealed lease, an unsealed lease.
		`{"lease":null}`,
		poll(sealed),
		poll(unsealed),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRegister(data); err == nil && req.NodeID != "" {
			if validNodeID(req.NodeID) != nil {
				t.Fatalf("DecodeRegister accepted invalid node id %q", req.NodeID)
			}
		}
		if req, err := DecodePoll(data); err == nil {
			if validNodeID(req.NodeID) != nil {
				t.Fatalf("DecodePoll accepted invalid node id %q", req.NodeID)
			}
		}
		if req, err := DecodeHeartbeat(data); err == nil {
			for _, id := range req.Leases {
				if validLeaseID(id) != nil {
					t.Fatalf("DecodeHeartbeat accepted invalid lease id %q", id)
				}
			}
		}
		if req, err := DecodeResult(data); err == nil {
			if req.Error == "" && len(req.Results) == 0 {
				t.Fatal("DecodeResult accepted a delivery with neither results nor error")
			}
			// Attestation envelope invariants: one well-formed digest per
			// result — the coordinator's self-check indexes atts by result
			// position and compares digests verbatim, so a ragged or
			// malformed envelope must never get that far.
			if len(req.Atts) != len(req.Results) {
				t.Fatalf("DecodeResult accepted %d atts for %d results", len(req.Atts), len(req.Results))
			}
			for _, a := range req.Atts {
				if validAttestation(a) != nil {
					t.Fatalf("DecodeResult accepted malformed attestation %q", a)
				}
			}
			if len(req.Build) > 256 {
				t.Fatalf("DecodeResult accepted a %d-byte build tag", len(req.Build))
			}
		}
		// What Worker.poll does with a poll response: decode it, then gate
		// execution on Validate.
		var pr PollResponse
		if json.Unmarshal(data, &pr) == nil && pr.Lease != nil && pr.Lease.Validate() == nil {
			wl := pr.Lease
			if wl.Sum != wl.checksum() {
				t.Fatalf("Validate accepted lease %q with sum %q, want %q", wl.ID, wl.Sum, wl.checksum())
			}
			if validLeaseID(wl.ID) != nil || validSeeds(wl.Seeds) != nil {
				t.Fatalf("Validate accepted lease %q with seeds %v", wl.ID, wl.Seeds)
			}
			if _, err := wl.Spec.Build(); err != nil {
				t.Fatalf("validated lease spec does not build: %v", err)
			}
		}
	})
}
