package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
)

// Body HMAC for the fleet wire: the one check every fleet request passes
// before it is decoded. The client stamps each request with an
// HMAC-SHA256 of the body, keyed by the shared secret (`-fleet-secret` on
// every node, or the empty key when none is set); the coordinator verifies
// it in constant time and answers 401 on a missing or wrong tag. With the
// empty key the tag is an integrity check only: a body corrupted in flight
// bounces at the door instead of decoding into a different node id, lease
// or result. With a secret it is also the membership check: anyone who can
// reach the port can otherwise register, poll leases away from real
// workers, or deliver results. Either way this is transport-level, not
// per-node identity — any holder of the secret can speak as any node id
// (quorum + reputation handle a member that turns Byzantine).

// AuthHeader carries the request's HMAC tag, hex-encoded.
const AuthHeader = "X-Fleet-Auth"

// authMAC computes the hex HMAC-SHA256 tag of a request body.
func authMAC(secret string, body []byte) string {
	m := hmac.New(sha256.New, []byte(secret))
	m.Write(body)
	return hex.EncodeToString(m.Sum(nil))
}

// Signer returns a request-signing hook for service.Client.Sign that stamps
// AuthHeader on every outgoing fleet RPC, keyed by secret (empty = the
// empty key).
func Signer(secret string) func(*http.Request, []byte) {
	return func(req *http.Request, body []byte) {
		req.Header.Set(AuthHeader, authMAC(secret, body))
	}
}

// VerifyAuth checks a received tag against the body in constant time.
func VerifyAuth(secret, tag string, body []byte) bool {
	return hmac.Equal([]byte(tag), []byte(authMAC(secret, body)))
}
