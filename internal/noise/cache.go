package noise

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
)

// floatBits is the identity the cache compares and hashes matrices under:
// raw IEEE bits, so distinct NaN payloads or signed zeros never alias.
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// sharedCap bounds the process-wide channel cache. Entries are keyed by
// matrix content, and real workloads use a handful of distinct channels
// (RunBatch fleets and service leases reuse one shape for thousands of
// runners), so the cap only guards against pathological churn. When it is
// reached the cache is dropped wholesale; correctness never depends on a hit.
const sharedCap = 64

// sharedEntry records one cached composition: the input matrices (kept for
// exact-equality verification against hash collisions) and the derived
// effective matrix and alias-table channel.
type sharedEntry struct {
	noise      *Matrix
	artificial *Matrix
	eff        *Matrix
	ch         *Channel
}

var (
	sharedMu    sync.Mutex
	sharedCache = map[uint64][]*sharedEntry{}
	sharedLen   int
)

// SharedChannel returns the effective noise matrix — Noise composed with the
// artificial channel when one is present (Theorem 8 folding) — together with
// its alias-table Channel, served from a process-wide content-keyed cache.
//
// Matrix and Channel are immutable after construction, so runners whose
// configurations carry content-equal channels (a RunBatch fleet sharing
// pointers, service runners cached per job shape holding distinct but equal
// matrices) all receive the same instances instead of each rebuilding the
// composition and its alias tables.
func SharedChannel(n, artificial *Matrix) (*Matrix, *Channel, error) {
	key := channelKey(n, artificial)
	if eff, ch, ok := sharedLookup(key, n, artificial); ok {
		return eff, ch, nil
	}

	eff := n
	if artificial != nil {
		var err error
		eff, err = Compose(n, artificial)
		if err != nil {
			return nil, nil, err
		}
	}
	ch, err := NewChannel(eff)
	if err != nil {
		return nil, nil, err
	}

	sharedMu.Lock()
	defer sharedMu.Unlock()
	// Recheck under the lock: a racing caller may have inserted the same
	// content while this one was building; adopting its entry keeps every
	// equal-shape runner on one shared instance.
	for _, e := range sharedCache[key] {
		if matrixEqual(e.noise, n) && matrixEqual(e.artificial, artificial) {
			return e.eff, e.ch, nil
		}
	}
	if sharedLen >= sharedCap {
		sharedCache = make(map[uint64][]*sharedEntry, sharedCap)
		sharedLen = 0
	}
	sharedCache[key] = append(sharedCache[key], &sharedEntry{
		noise: n, artificial: artificial, eff: eff, ch: ch,
	})
	sharedLen++
	return eff, ch, nil
}

func sharedLookup(key uint64, n, artificial *Matrix) (*Matrix, *Channel, bool) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for _, e := range sharedCache[key] {
		if matrixEqual(e.noise, n) && matrixEqual(e.artificial, artificial) {
			return e.eff, e.ch, true
		}
	}
	return nil, nil, false
}

// channelKey hashes the entries of both matrices (FNV-1a over the raw float
// bits, with a separator so (N·P, nil) and (N, P) cannot collide trivially).
// Collisions are resolved by matrixEqual, never trusted.
func channelKey(n, artificial *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(m *Matrix) {
		d := m.Alphabet()
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				binary.LittleEndian.PutUint64(buf[:], floatBits(m.At(i, j)))
				h.Write(buf[:])
			}
		}
	}
	write(n)
	if artificial != nil {
		buf = [8]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8}
		h.Write(buf[:])
		write(artificial)
	}
	return h.Sum64()
}

// matrixEqual reports exact (bit-level) equality of two matrices, treating
// two nils as equal. Content equality is the cache's identity: runners built
// from equal matrices sample identical distributions, so sharing one channel
// is observationally invisible.
func matrixEqual(a, b *Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	d := a.Alphabet()
	if b.Alphabet() != d {
		return false
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if floatBits(a.At(i, j)) != floatBits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}
