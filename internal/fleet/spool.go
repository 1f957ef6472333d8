package fleet

import "sync"

// maxSpoolAttempts bounds redelivery of one spooled result. Only deliveries
// the coordinator answered and refused count — an unreachable or unhealthy
// coordinator costs no attempt — so this caps work against a
// reachable-but-rejecting coordinator, not outage length. At the flush
// cadence this is minutes of retrying; beyond it the range has long been
// re-leased and the delivery is pure duplicate.
const maxSpoolAttempts = 120

// spoolCap bounds a worker's queue of computed-but-undelivered result
// reports.
const spoolCap = 256

// spoolEntry is one undelivered result report awaiting redelivery.
type spoolEntry struct {
	req      *ResultRequest
	attempts int
}

// spool is the worker's bounded FIFO of result deliveries that failed —
// coordinator down, replaying its journal, or mid-restart. Results are
// recomputable (deterministic in (spec, seed)), so the spool is an
// optimization, not a durability mechanism: it saves the re-lease + re-run
// of ranges this node already computed, which matters most right after a
// coordinator restart when every worker's in-flight work lands at once.
type spool struct {
	mu      sync.Mutex
	cap     int
	entries []*spoolEntry
	dropped int64 // entries evicted (overflow or attempt cap), for metrics
}

func newSpool(capacity int) *spool {
	return &spool{cap: capacity}
}

// push appends a failed delivery. When full, the oldest entry is evicted —
// older results are the most likely to have been re-leased and recomputed
// already, so they are the cheapest to lose.
func (s *spool) push(req *ResultRequest) (evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) >= s.cap {
		s.entries = s.entries[1:]
		s.dropped++
		evicted = true
	}
	s.entries = append(s.entries, &spoolEntry{req: req})
	return evicted
}

// head returns the oldest entry without removing it (nil when empty). The
// flusher delivers head-first so ordering roughly matches computation order.
func (s *spool) head() *spoolEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return nil
	}
	return s.entries[0]
}

// drop removes e if it is still the head (it may have been evicted by a
// concurrent push overflow), reporting whether e was removed here.
func (s *spool) drop(e *spoolEntry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 || s.entries[0] != e {
		return false
	}
	s.entries = s.entries[1:]
	return true
}

// abandon is drop plus the dropped-counter bump, for attempt-cap evictions.
func (s *spool) abandon(e *spoolEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) > 0 && s.entries[0] == e {
		s.entries = s.entries[1:]
		s.dropped++
	}
}

// stats returns (queued, dropped) for metrics.
func (s *spool) stats() (queued int, dropped int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.dropped
}
