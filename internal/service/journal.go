package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the service's write-ahead job journal: an append-only
// NDJSON file that records every submission, per-seed result, engine
// checkpoint, and terminal outcome. On startup the service replays it,
// reinstalling terminal jobs into the result store and re-enqueueing
// non-terminal ones (resuming from their last checkpoint when one was
// recorded), so a kill -9 loses at most the tail of the round in flight.
//
// Durability contract: every record is flushed to the OS when appended (a
// crash loses at most the final, possibly torn line — replay tolerates
// that), and terminal records are additionally fsynced, so an acknowledged
// job outcome survives power loss. Records for unknown jobs or with unknown
// types are skipped on replay, keeping old daemons forward-compatible with
// journals written by newer ones.

// journalFile is the journal's name inside Config.JournalDir.
const journalFile = "simd-journal.ndjson"

// Journal record types (journalRecord.T).
const (
	recSubmit     = "submit"
	recSeed       = "seed"
	recCheckpoint = "checkpoint"
	recTerminal   = "terminal"
	recLease      = "lease"
)

// journalRecord is one NDJSON line. Which fields are set depends on T:
// submit carries Spec; seed carries Seed/Result/Seq;
// checkpoint carries Seed/Round/Data/Seq (Data is the engine snapshot,
// base64 on the wire); terminal carries State, Error and Finished; lease
// carries Op/Lease/Node/Seeds/Attempt and, for result ops, Results.
type journalRecord struct {
	T      string      `json:"t"`
	Job    string      `json:"job,omitempty"`
	Spec   *JobSpec    `json:"spec,omitempty"`
	State  State       `json:"state,omitempty"`
	Error  string      `json:"error,omitempty"`
	Seed   *uint64     `json:"seed,omitempty"`
	Result *SeedResult `json:"result,omitempty"`
	Seq    uint64      `json:"seq,omitempty"`
	Round  int         `json:"round,omitempty"`
	Data   []byte      `json:"data,omitempty"`
	// Finished is a terminal job's finish time in unix milliseconds, so
	// replay keeps its expiry. Terminal records written before it existed
	// lack it.
	Finished int64 `json:"finished,omitempty"`

	// Fleet lease-lifecycle fields (T == recLease).
	Op      LeaseOp      `json:"op,omitempty"`
	Lease   string       `json:"lease,omitempty"`
	Node    string       `json:"node,omitempty"`
	Seeds   []uint64     `json:"seeds,omitempty"`
	Attempt int          `json:"attempt,omitempty"`
	Results []SeedResult `json:"results,omitempty"`
	// Quorum is the agreeing-votes requirement a grant was cut under
	// (omitted for unverified, need-1 leases).
	Quorum int `json:"quorum,omitempty"`
}

// LeaseOp names one fleet lease-lifecycle event in the journal. The service
// stores lease records without interpreting them: replay hands each job's
// records to its dispatcher (DispatchJob.Records) and the records that name
// no job to the fleet coordinator (NodeRecords), and the fleet alone folds
// them.
type LeaseOp string

const (
	// LeaseGrant: the lease went active on a node (or was adopted after a
	// restart). Re-grants of a requeued lease overwrite the earlier grant.
	LeaseGrant LeaseOp = "grant"
	// LeaseResult: the node delivered the lease's results; Results carries
	// the fresh (not-yet-merged) ones. Those seeds are banked — a restarted
	// coordinator must never recompute them even though they are not yet
	// part of the released prefix.
	LeaseResult LeaseOp = "result"
	// LeaseRequeue: the lease expired or its node died; it went back to
	// pending with a bumped attempt count.
	LeaseRequeue LeaseOp = "requeue"
	// LeaseAbandon: the lease hit its attempt cap and failed the job.
	LeaseAbandon LeaseOp = "abandon"
	// LeaseQuarantine: a node was quarantined (attestation failures or
	// quorum disagreement). Not tied to a job or lease — Node and Reason
	// (journaled in Error) are the payload — so quarantine survives a
	// coordinator restart: a lying node does not get a second chance just
	// because the coordinator rebooted.
	LeaseQuarantine LeaseOp = "quarantine"
	// LeaseAbsolve: a quarantined node finished probation and may take
	// leases again.
	LeaseAbsolve LeaseOp = "absolve"
)

// LeaseRecord is one lease-lifecycle event as handed to AppendLease by the
// fleet coordinator, and as replay hands it back.
type LeaseRecord struct {
	Op      LeaseOp
	Job     string
	Lease   string
	Node    string
	Seeds   []uint64
	Attempt int
	Results []SeedResult
	// Quorum is the grant's agreeing-votes requirement (0/1 = unverified).
	Quorum int
	// Reason annotates quarantine records (journaled in the Error field).
	Reason string
}

// journal is the append side. A nil *journal is a valid no-op (the service
// without -journal-dir), so call sites never branch. Write errors are
// sticky: the first failure disables further appends and is logged once —
// the daemon keeps serving, degraded to in-memory-only, rather than failing
// jobs over a full disk.
type journal struct {
	path  string
	logf  func(format string, args ...any)
	onErr func()

	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

// openJournal creates dir if needed and opens the journal for appending.
func openJournal(dir string, logf func(string, ...any), onErr func()) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{path: path, logf: logf, onErr: onErr, f: f, w: bufio.NewWriter(f)}, nil
}

// append marshals rec, writes it as one line, and flushes it to the OS.
// sync additionally fsyncs (terminal records: an acknowledged outcome must
// survive power loss, not just a process kill).
func (jl *journal) append(rec *journalRecord, sync bool) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.err != nil {
		return
	}
	data, err := json.Marshal(rec)
	if err == nil {
		data = append(data, '\n')
		_, err = jl.w.Write(data)
	}
	if err == nil {
		err = jl.w.Flush()
	}
	if err == nil && sync {
		err = jl.f.Sync()
	}
	if err != nil {
		jl.err = err
		if jl.onErr != nil {
			jl.onErr()
		}
		if jl.logf != nil {
			jl.logf("journal: write failed, durability disabled: %v", err)
		}
	}
}

func (jl *journal) appendSubmit(id string, spec *JobSpec) {
	jl.append(&journalRecord{T: recSubmit, Job: id, Spec: spec}, false)
}

func (jl *journal) appendSeed(id string, seed uint64, res *SeedResult, seq uint64) {
	jl.append(&journalRecord{T: recSeed, Job: id, Seed: &seed, Result: res, Seq: seq}, false)
}

func (jl *journal) appendCheckpoint(id string, seed uint64, round int, data []byte, seq uint64) {
	jl.append(&journalRecord{T: recCheckpoint, Job: id, Seed: &seed, Round: round, Data: data, Seq: seq}, false)
}

func (jl *journal) appendTerminal(id string, state State, errMsg string, finished time.Time) {
	jl.append(&journalRecord{T: recTerminal, Job: id, State: state, Error: errMsg, Finished: finished.UnixMilli()}, true)
}

func (jl *journal) appendLease(rec *LeaseRecord) {
	jl.append(&journalRecord{
		T: recLease, Job: rec.Job, Op: rec.Op, Lease: rec.Lease,
		Node: rec.Node, Seeds: rec.Seeds, Attempt: rec.Attempt,
		Results: rec.Results, Quorum: rec.Quorum, Error: rec.Reason,
	}, false)
}

func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.err == nil {
		jl.err = fmt.Errorf("service: journal closed")
		_ = jl.w.Flush()
		_ = jl.f.Sync()
	}
	_ = jl.f.Close()
}

// checkpointState is a recovered job's last journaled engine checkpoint.
type checkpointState struct {
	seed  uint64
	round int
	data  []byte
	seq   uint64
}

// recoveredJob accumulates one job's journal records during replay.
type recoveredJob struct {
	id       string
	spec     JobSpec
	terminal State     // "" while non-terminal
	finished time.Time // the terminal record's finish time; zero if it has none
	errMsg   string
	results  []SeedResult // the released prefix of spec.Seeds, in spec order
	ck       *checkpointState
	seq      uint64 // max event seq journaled; resumed publishing continues past it

	// leases are the job's lease records in journal order, for the fleet
	// dispatcher to fold.
	leases []LeaseRecord
}

// isNext reports whether seed is the job's next unreleased seed: the only
// seed a seed or checkpoint record may carry, since both execution paths
// release results in spec order.
func (j *recoveredJob) isNext(seed *uint64) bool {
	n := len(j.results)
	return seed != nil && n < len(j.spec.Seeds) && *seed == j.spec.Seeds[n]
}

// replayOutcome is what replayJournal hands the service's recovery pass.
type replayOutcome struct {
	records int
	torn    bool
	jobs    []*recoveredJob // journal (submission) order
	maxID   uint64
	// nodeRecords are the lease records that name no job (quarantine,
	// absolve), in journal order.
	nodeRecords []LeaseRecord
}

// ReplaySummary reports a journal replay to /readyz and the startup log.
type ReplaySummary struct {
	// Records is the number of journal records replayed.
	Records int `json:"records"`
	// TornTail reports that the final line was incomplete (the write the
	// crash interrupted) and was discarded.
	TornTail bool `json:"torn_tail,omitempty"`
	// Jobs is the number of distinct jobs in the journal.
	Jobs int `json:"jobs"`
	// Restored is how many terminal jobs were reinstalled into the store
	// (those past their result TTL stay evicted).
	Restored int `json:"restored"`
	// Resumed is how many interrupted jobs were re-enqueued (from their last
	// checkpoint when one was journaled, from scratch otherwise).
	Resumed int `json:"resumed"`
	// Lost is how many interrupted jobs could not be resumed and were marked
	// failed ("lost to crash: ...").
	Lost int `json:"lost"`
	// DurationMS is the wall-clock replay time in milliseconds.
	DurationMS int64 `json:"duration_ms"`
}

func (rs ReplaySummary) String() string {
	torn := ""
	if rs.TornTail {
		torn = ", torn tail discarded"
	}
	return fmt.Sprintf("%d records, %d jobs (%d restored, %d resumed, %d lost) in %dms%s",
		rs.Records, rs.Jobs, rs.Restored, rs.Resumed, rs.Lost, rs.DurationMS, torn)
}

// replayJournal reads the journal at path and reconstructs per-job state.
// A missing file is an empty journal. Replay stops at the first unparsable
// line: anything beyond a torn write is unaccounted for, and the append side
// guarantees records are whole lines, so a parse failure can only be the
// crash-interrupted tail (or external corruption, which the same policy
// contains). Replay never fails on file content — only I/O errors surface.
func replayJournal(path string) (*replayOutcome, error) {
	out := &replayOutcome{}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return nil, err
	}
	defer f.Close()

	byID := make(map[string]*recoveredJob)
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			var rec journalRecord
			if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil {
				out.torn = true
				return out, nil
			}
			out.records++
			applyRecord(byID, out, &rec)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// applyRecord folds one journal record into the replay state. Records for
// unknown jobs or of unknown types are skipped (forward compatibility).
func applyRecord(byID map[string]*recoveredJob, out *replayOutcome, rec *journalRecord) {
	switch {
	case rec.T == recSubmit:
		if rec.Spec == nil || rec.Job == "" || byID[rec.Job] != nil {
			return
		}
		j := &recoveredJob{id: rec.Job, spec: *rec.Spec}
		byID[rec.Job] = j
		out.jobs = append(out.jobs, j)
		if id := parseJobID(rec.Job); id > out.maxID {
			out.maxID = id
		}
		return
	case rec.T == recLease && rec.Job == "":
		out.nodeRecords = append(out.nodeRecords, rec.leaseRecord())
		return
	}
	j := byID[rec.Job]
	if j == nil {
		return
	}
	switch rec.T {
	case recSeed:
		if rec.Result == nil || !j.isNext(rec.Seed) || rec.Result.Seed != *rec.Seed {
			return
		}
		j.results = append(j.results, *rec.Result)
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		j.ck = nil // a checkpoint is only ever of this seed, which finished
	case recCheckpoint:
		if len(rec.Data) == 0 || !j.isNext(rec.Seed) {
			return
		}
		j.ck = &checkpointState{seed: *rec.Seed, round: rec.Round, data: rec.Data, seq: rec.Seq}
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
	case recTerminal:
		if rec.State.Terminal() {
			j.terminal = rec.State
			j.errMsg = rec.Error
			j.finished = time.Time{}
			if rec.Finished > 0 {
				j.finished = time.UnixMilli(rec.Finished)
			}
			j.ck = nil
		}
	case recLease:
		j.leases = append(j.leases, rec.leaseRecord())
	}
}

// leaseRecord converts a lease line back into the record AppendLease wrote.
func (rec *journalRecord) leaseRecord() LeaseRecord {
	return LeaseRecord{
		Op: rec.Op, Job: rec.Job, Lease: rec.Lease, Node: rec.Node, Seeds: rec.Seeds,
		Attempt: rec.Attempt, Results: rec.Results, Quorum: rec.Quorum, Reason: rec.Error,
	}
}

// parseJobID extracts the numeric part of a "j-000123" id (0 if foreign).
func parseJobID(id string) uint64 {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// recover replays the journal and rebuilds service state: terminal jobs go
// back into the result store, interrupted jobs are re-enqueued (with their
// completed seeds and last checkpoint), and jobs that cannot be rebuilt are
// finalized as failed with a "lost to crash" reason. It runs once, in the
// background, before the service reports ready; submissions meanwhile get
// ErrNotReady.
func (s *Service) recover() {
	start := time.Now()
	outcome, err := replayJournal(s.journal.path)
	if err != nil {
		// Unreadable journal: surface loudly but come up empty rather than
		// refusing to serve (the file stays on disk for forensics).
		s.logf("journal: replay failed, starting empty: %v", err)
		outcome = &replayOutcome{}
	}

	summary := ReplaySummary{
		Records:  outcome.records,
		TornTail: outcome.torn,
		Jobs:     len(outcome.jobs),
	}
	now := time.Now()
	for _, rj := range outcome.jobs {
		switch {
		case rj.terminal != "":
			if s.installTerminal(rj, now) {
				summary.Restored++
			}
		default:
			if s.resubmit(rj) {
				summary.Resumed++
				s.metrics.recovered.Add(1)
			} else {
				summary.Lost++
			}
		}
	}

	s.mu.Lock()
	if outcome.maxID > s.nextID {
		s.nextID = outcome.maxID
	}
	s.mu.Unlock()

	summary.DurationMS = time.Since(start).Milliseconds()
	s.metrics.replayMS.Store(summary.DurationMS)
	s.replayMu.Lock()
	s.replay = summary
	s.replayDone = true
	s.nodeRecords = outcome.nodeRecords
	s.replayMu.Unlock()
	s.ready.Store(true)
	s.logf("journal: replay done: %s", summary.String())
}

// installTerminal puts a finished job straight into the result store with
// the finish time its terminal record gives and the expiry that follows from
// it, reporting whether it did: a job already past its expiry, which the
// janitor evicted or would evict, stays gone. A record without a finish time
// gets the restart time and a fresh TTL. The submission time is not
// journaled, so a restored job's creation time reads its finish time.
func (s *Service) installTerminal(rj *recoveredJob, now time.Time) bool {
	finished := rj.finished
	if finished.IsZero() {
		finished = now
	}
	expiry := finished.Add(s.cfg.ResultTTL)
	if now.After(expiry) {
		return false
	}
	j := &job{
		id:       rj.id,
		spec:     rj.spec,
		state:    rj.terminal,
		errMsg:   rj.errMsg,
		results:  rj.results,
		created:  finished,
		finished: finished,
		expiry:   expiry,
	}
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)
	j.cancel() // terminal: nothing will ever run under this context
	s.mu.Lock()
	if _, exists := s.jobs[j.id]; !exists {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.mu.Unlock()
	return true
}

// resubmit re-enqueues an interrupted job, reporting whether it is live
// again. Failure paths (spec no longer builds, queue overflow, drain racing
// recovery) finalize the job as failed with a journaled "lost to crash"
// reason, so the loss is visible to clients instead of silent.
func (s *Service) resubmit(rj *recoveredJob) bool {
	spec := rj.spec
	spec.normalize()
	lost := func(reason string) {
		j := &job{id: rj.id, spec: spec, state: StateRunning, created: time.Now(), results: rj.results}
		j.ctx, j.cancel = context.WithCancel(s.rootCtx)
		s.mu.Lock()
		if _, exists := s.jobs[j.id]; !exists {
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
		}
		s.mu.Unlock()
		s.finalize(j, StateFailed, "lost to crash: "+reason)
		s.logf("job %s lost to crash: %s", rj.id, reason)
	}

	cfg, err := spec.build()
	if err != nil {
		lost(err.Error())
		return false
	}
	cfg.Workers = s.cfg.SimWorkers

	j := &job{
		id:      rj.id,
		spec:    spec,
		shape:   spec.shape(),
		cfg:     cfg,
		state:   StatePending,
		created: time.Now(),
		results: rj.results,
		resume:  rj.ck,
		leases:  rj.leases,
	}
	j.seq.Store(rj.seq)
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lost("service shut down during recovery")
		return false
	}
	if _, exists := s.jobs[j.id]; exists {
		s.mu.Unlock()
		return false // duplicate submit record; first wins
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		lost(fmt.Sprintf("recovery overflowed the job queue (capacity %d)", s.cfg.QueueCapacity))
		return false
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	// Log from rj.ck, not j.resume: once the job is on the queue a worker may
	// already have consumed the resume pointer.
	switch {
	case rj.ck != nil:
		s.logf("job %s recovered: resuming seed %d from checkpoint at round %d (%d/%d seeds done)",
			j.id, rj.ck.seed, rj.ck.round, len(rj.results), len(spec.Seeds))
	case len(rj.leases) > 0:
		s.logf("job %s recovered: re-enqueued (%d/%d seeds done, %d lease records for the dispatcher)",
			j.id, len(rj.results), len(spec.Seeds), len(rj.leases))
	default:
		s.logf("job %s recovered: re-enqueued (%d/%d seeds done)", j.id, len(rj.results), len(spec.Seeds))
	}
	return true
}
