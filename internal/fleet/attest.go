package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"noisypull/internal/service"
)

// Result attestation is the fleet's defense against workers that are wrong
// rather than slow or dead: a worker with bad RAM, a skewed build, or
// adversarial intent can deliver a well-formed result whose numbers are
// simply false. The body HMAC (auth.go) cannot catch that — the liar tags
// its lie honestly. Attestation makes the *content* comparable:
// every seed result carries a digest over the canonical result payload, the
// job's config fingerprint, and the producing build, so two independent
// nodes agree on a seed if and only if they computed byte-identical results
// for it under the same config and build. The quorum merge (merge.go)
// admits a seed only when enough digests agree.

// attLen is the hex length of an attestation digest — same truncation as
// the lease checksum (64 bits of sha256 is plenty for equality checking;
// this is not a signature).
const attLen = 16

// Attest computes the attestation digest for one seed result produced under
// the given config fingerprint by the given build. The digest deliberately
// excludes the node id (any two honest nodes must produce equal digests)
// and deliberately includes the build version (a mixed-build fleet cannot
// form a quorum across builds — if results could differ by build, silently
// outvoting the newer build would be the wrong answer).
func Attest(sr *service.SeedResult, fingerprint, build string) string {
	h := sha256.New()
	io.WriteString(h, fingerprint)
	h.Write([]byte{0})
	io.WriteString(h, build)
	h.Write([]byte{0})
	// SeedResult is flat integers and bools, so a decode/re-encode round
	// trip is byte-stable and both ends compute identical digests from
	// their in-memory structs.
	_ = json.NewEncoder(h).Encode(sr)
	return hex.EncodeToString(h.Sum(nil))[:attLen]
}

// AttestAll digests every result in a delivery, in order.
func AttestAll(results []service.SeedResult, fingerprint, build string) []string {
	if len(results) == 0 {
		return nil
	}
	atts := make([]string, len(results))
	for i := range results {
		atts[i] = Attest(&results[i], fingerprint, build)
	}
	return atts
}

// validAttestation enforces the digest shape at decode time: exactly attLen
// lowercase hex characters.
func validAttestation(a string) error {
	if len(a) != attLen {
		return fmt.Errorf("fleet: attestation digest is %d bytes, want %d", len(a), attLen)
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("fleet: attestation digest contains %q (want lowercase hex)", c)
		}
	}
	return nil
}
