package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the service's counter set, exported in Prometheus text format
// at /metrics. Everything is an atomic so the hot paths (one increment per
// simulated round) never contend on a lock.
type metrics struct {
	submitted atomic.Int64
	rejected  atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	evicted   atomic.Int64
	running   atomic.Int64
	rounds    atomic.Int64
	streams   atomic.Int64
	faults    atomic.Int64
	panics    atomic.Int64

	// Durability counters (journal, checkpoint/resume, watchdog).
	recovered       atomic.Int64 // jobs re-enqueued by journal replay
	watchdogKills   atomic.Int64 // jobs failed for exceeding max_wall_ms
	checkpoints     atomic.Int64 // engine checkpoints journaled
	checkpointBytes atomic.Int64 // size of the most recent checkpoint
	replayMS        atomic.Int64 // last journal replay duration
	journalErrors   atomic.Int64 // journal write failures (durability lost)
	restoreFailures atomic.Int64 // journaled checkpoints that failed Restore
}

// WriteMetrics emits the service metrics in Prometheus text exposition
// format.
func (s *Service) WriteMetrics(w io.Writer) error {
	m := &s.metrics
	byState := s.Jobs()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP simd_jobs_submitted_total Jobs accepted into the queue.\n")
	p("# TYPE simd_jobs_submitted_total counter\n")
	p("simd_jobs_submitted_total %d\n", m.submitted.Load())
	p("# HELP simd_jobs_rejected_total Submissions rejected with queue-full backpressure.\n")
	p("# TYPE simd_jobs_rejected_total counter\n")
	p("simd_jobs_rejected_total %d\n", m.rejected.Load())
	p("# HELP simd_jobs_completed_total Jobs that reached a terminal state.\n")
	p("# TYPE simd_jobs_completed_total counter\n")
	p("simd_jobs_completed_total{state=\"done\"} %d\n", m.done.Load())
	p("simd_jobs_completed_total{state=\"failed\"} %d\n", m.failed.Load())
	p("simd_jobs_completed_total{state=\"cancelled\"} %d\n", m.cancelled.Load())
	p("# HELP simd_jobs_evicted_total Terminal jobs evicted after their TTL.\n")
	p("# TYPE simd_jobs_evicted_total counter\n")
	p("simd_jobs_evicted_total %d\n", m.evicted.Load())
	p("# HELP simd_jobs_running Jobs currently executing on a scheduler worker.\n")
	p("# TYPE simd_jobs_running gauge\n")
	p("simd_jobs_running %d\n", m.running.Load())
	p("# HELP simd_queue_depth Jobs waiting for a scheduler worker.\n")
	p("# TYPE simd_queue_depth gauge\n")
	p("simd_queue_depth %d\n", s.QueueDepth())
	p("# HELP simd_jobs_stored Jobs currently held in the result store, by state.\n")
	p("# TYPE simd_jobs_stored gauge\n")
	for _, st := range sortStates {
		p("simd_jobs_stored{state=%q} %d\n", string(st), byState[st])
	}
	p("# HELP simd_rounds_total Simulated rounds executed across all jobs.\n")
	p("# TYPE simd_rounds_total counter\n")
	p("simd_rounds_total %d\n", m.rounds.Load())
	p("# HELP simd_streams_active Open progress streams.\n")
	p("# TYPE simd_streams_active gauge\n")
	p("simd_streams_active %d\n", m.streams.Load())
	p("# HELP simd_faults_injected_total Scheduled fault events applied across all jobs.\n")
	p("# TYPE simd_faults_injected_total counter\n")
	p("simd_faults_injected_total %d\n", m.faults.Load())
	p("# HELP simd_worker_panics_total Protocol/engine panics recovered by scheduler workers.\n")
	p("# TYPE simd_worker_panics_total counter\n")
	p("simd_worker_panics_total %d\n", m.panics.Load())
	p("# HELP simd_jobs_recovered_total Interrupted jobs re-enqueued by journal replay.\n")
	p("# TYPE simd_jobs_recovered_total counter\n")
	p("simd_jobs_recovered_total %d\n", m.recovered.Load())
	p("# HELP simd_watchdog_kills_total Jobs failed for exceeding their max_wall_ms budget.\n")
	p("# TYPE simd_watchdog_kills_total counter\n")
	p("simd_watchdog_kills_total %d\n", m.watchdogKills.Load())
	p("# HELP simd_checkpoints_total Engine checkpoints written to the journal.\n")
	p("# TYPE simd_checkpoints_total counter\n")
	p("simd_checkpoints_total %d\n", m.checkpoints.Load())
	p("# HELP simd_checkpoint_restore_failures_total Journaled checkpoints that failed to restore; their seeds reran from round 0.\n")
	p("# TYPE simd_checkpoint_restore_failures_total counter\n")
	p("simd_checkpoint_restore_failures_total %d\n", m.restoreFailures.Load())
	p("# HELP simd_checkpoint_bytes Size of the most recently journaled engine checkpoint.\n")
	p("# TYPE simd_checkpoint_bytes gauge\n")
	p("simd_checkpoint_bytes %d\n", m.checkpointBytes.Load())
	p("# HELP simd_journal_replay_ms Duration of the startup journal replay.\n")
	p("# TYPE simd_journal_replay_ms gauge\n")
	p("simd_journal_replay_ms %d\n", m.replayMS.Load())
	p("# HELP simd_journal_errors_total Journal write failures (durability degraded).\n")
	p("# TYPE simd_journal_errors_total counter\n")
	p("simd_journal_errors_total %d\n", m.journalErrors.Load())
	if err == nil && s.cfg.ExtraMetrics != nil {
		err = s.cfg.ExtraMetrics(w)
	}
	return err
}
