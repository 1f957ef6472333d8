package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"noisypull"
)

// State is a job's position in its lifecycle. Transitions are
// pending → running → {done, failed, cancelled}, with the shortcut
// pending → cancelled for jobs cancelled while still queued.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SeedResult summarizes one completed trial of a job.
type SeedResult struct {
	Seed            uint64         `json:"seed"`
	Rounds          int            `json:"rounds"`
	Converged       bool           `json:"converged"`
	FirstAllCorrect int            `json:"first_all_correct,omitempty"`
	CorrectOpinion  int            `json:"correct_opinion"`
	FinalCorrect    int            `json:"final_correct"`
	Faults          []FaultOutcome `json:"faults,omitempty"`
}

// FaultOutcome is the wire form of one applied fault's telemetry
// (noisypull.FaultRecord).
type FaultOutcome struct {
	Round       int    `json:"round"`
	Kind        string `json:"kind"`
	Index       int    `json:"index"`
	Affected    int    `json:"affected"`
	RecoveredAt int    `json:"recovered_at,omitempty"`
}

// Event is one line of a job's NDJSON progress stream.
//
//   - "round": a simulated round finished (Seed, Round, Correct).
//   - "fault": a scheduled fault was applied (Seed, Round, Kind, Affected).
//   - "seed":  a trial finished (Seed, Result).
//   - "status": the terminal line, carrying the final job status.
//
// Seq is the job's monotonic event number, assigned whether or not anyone is
// streaming (the counter is journaled and restored across daemon restarts,
// so numbering never depends on who was watching). A client that loses its
// stream reconnects with StreamFrom(lastSeq) and receives only events it has
// not seen. The synthesized terminal "status" line carries no Seq.
type Event struct {
	Type     string      `json:"type"`
	Seq      uint64      `json:"seq,omitempty"`
	Seed     uint64      `json:"seed,omitempty"`
	Round    int         `json:"round,omitempty"`
	Correct  int         `json:"correct,omitempty"`
	Kind     string      `json:"kind,omitempty"`
	Affected int         `json:"affected,omitempty"`
	Result   *SeedResult `json:"result,omitempty"`
	Job      *JobStatus  `json:"job,omitempty"`
}

// JobStatus is the API representation of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID             string       `json:"id"`
	State          State        `json:"state"`
	Spec           JobSpec      `json:"spec"`
	Created        time.Time    `json:"created"`
	Started        *time.Time   `json:"started,omitempty"`
	Finished       *time.Time   `json:"finished,omitempty"`
	Error          string       `json:"error,omitempty"`
	Results        []SeedResult `json:"results,omitempty"`
	CompletedSeeds int          `json:"completed_seeds"`
	TotalSeeds     int          `json:"total_seeds"`
}

// subscriberBuffer is the per-stream event buffer. Round events beyond a
// slow consumer's buffer are dropped (progress streams are lossy by design);
// the terminal status line is never dropped because it is synthesized by the
// handler after the channel closes.
const subscriberBuffer = 1024

// job is the service's internal mutable record of one submission.
type job struct {
	id    string
	spec  JobSpec
	shape shapeKey
	cfg   noisypull.Config // built at submission; Seed filled per trial

	ctx    context.Context
	cancel context.CancelFunc

	nsubs atomic.Int32  // fast path: skip the mutex when nobody streams
	seq   atomic.Uint64 // monotonic event number; journaled, restored on recovery

	// watchdog is set when the per-job wall-clock limit fired: the context
	// cancellation then finalizes as failed, not cancelled.
	watchdog atomic.Bool

	// resume, when set by journal recovery, is the engine checkpoint the
	// job's next trial restores instead of starting from round zero. The
	// scheduler consumes it once.
	resume *checkpointState

	// leases, when set by journal recovery, are the job's lease records,
	// handed to its first re-dispatch (DispatchJob.Records). Consumed once,
	// like resume; meaningless without a Dispatcher.
	leases []LeaseRecord

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	results  []SeedResult
	subs     map[chan Event]struct{}
	expiry   time.Time // TTL eviction deadline once terminal
}

// status snapshots the job for the API.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:             j.id,
		State:          j.state,
		Spec:           j.spec,
		Created:        j.created,
		Error:          j.errMsg,
		CompletedSeeds: len(j.results),
		TotalSeeds:     len(j.spec.Seeds),
	}
	if len(j.results) > 0 {
		st.Results = append([]SeedResult(nil), j.results...)
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// subscribe registers a progress stream. The returned channel is closed when
// the job reaches a terminal state (immediately, if it already has); the
// returned func unsubscribes.
func (j *job) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, subscriberBuffer)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	j.nsubs.Add(1)
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			j.nsubs.Add(-1)
		}
		j.mu.Unlock()
	}
}

// publish assigns the event its sequence number and fans it out to all
// subscribers, dropping it for any whose buffer is full. The seq counter
// advances even with zero subscribers — sequence numbers must be a property
// of the job's execution, not of who happened to be streaming, or resuming a
// stream across a daemon restart could not line up. The nsubs fast path
// keeps the per-round cost of an unobserved job to one increment and one
// atomic load. It returns the assigned seq (journal records carry it).
func (j *job) publish(ev Event) uint64 {
	seq := j.seq.Add(1)
	if j.nsubs.Load() == 0 {
		return seq
	}
	ev.Seq = seq
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
	return seq
}

// finish moves the job to a terminal state, stamps the eviction deadline,
// closes every subscriber channel, and returns the finish time.
func (j *job) finish(state State, errMsg string, ttl time.Duration) time.Time {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	finished := time.Now()
	j.finished = finished
	j.expiry = finished.Add(ttl)
	subs := j.subs
	j.subs = nil
	j.nsubs.Store(0)
	j.mu.Unlock()
	j.cancel() // release the context's timer/child resources
	for ch := range subs {
		close(ch)
	}
	return finished
}
