// Command simd serves the simulation engine as a daemon: submit noisy
// PULL(h) jobs over HTTP, watch round-level progress as NDJSON, cancel
// mid-run, and let SIGTERM drain in-flight work gracefully.
//
//	simd -addr :8080 -queue 32 -workers 4
//
//	# Submit an SF job (three seeds), then stream and cancel:
//	curl -s localhost:8080/v1/jobs -d '{"n":1000,"h":32,"sources1":1,"protocol":"sf","seeds":[1,2,3]}'
//	curl -sN localhost:8080/v1/jobs/j-000001/stream
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//
// With -journal-dir the daemon keeps a write-ahead job journal and
// survives crashes: on restart it replays the journal, re-enqueues
// interrupted jobs (resuming mid-run trials from their last engine
// checkpoint when -checkpoint-rounds or the job's checkpoint_rounds is
// set), and serves 503 from /readyz until recovery finishes.
//
// The daemon also scales out. `-coordinator` turns it into a fleet
// coordinator: the same /v1/jobs API, but seed ranges are leased to
// worker daemons started with `-join http://coord:8080`, results merged
// order-free and bit-identical to a single-node run. See README
// "Running a fleet" and DESIGN.md §3.10.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"noisypull/internal/buildinfo"
	"noisypull/internal/chaos"
	"noisypull/internal/fleet"
	"noisypull/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		queue      = fs.Int("queue", 16, "job queue capacity (submissions beyond it get 429)")
		workers    = fs.Int("workers", 0, "scheduler workers executing jobs (0 = GOMAXPROCS)")
		simWorkers = fs.Int("sim-workers", 1, "engine goroutines per simulation")
		ttl        = fs.Duration("ttl", time.Hour, "how long finished jobs stay queryable")
		maxSeeds   = fs.Int("max-seeds", 1024, "maximum seeds per job")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline before in-flight jobs are cancelled")
		journalDir = fs.String("journal-dir", "", "directory for the write-ahead job journal; enables crash recovery (empty = in-memory only)")
		ckRounds   = fs.Int("checkpoint-rounds", 0, "default rounds between journaled engine checkpoints for jobs that don't set checkpoint_rounds (0 = off)")
		quiet      = fs.Bool("quiet", false, "suppress per-job log lines")
		version    = fs.Bool("version", false, "print version and exit")

		coordinator = fs.Bool("coordinator", false, "fleet: serve as coordinator, fanning job seed ranges out to joined workers")
		join        = fs.String("join", "", "fleet: serve as worker for the coordinator at this base URL (e.g. http://coord:8080)")
		nodeID      = fs.String("node-id", "", "fleet: stable worker identity (empty = coordinator-assigned)")
		slots       = fs.Int("worker-slots", 0, "fleet: leases this worker runs concurrently (0 = GOMAXPROCS)")
		leaseSeeds  = fs.Int("lease-seeds", 8, "fleet: seeds per lease handed to a worker")
		leaseTTL    = fs.Duration("lease-ttl", 15*time.Second, "fleet: heartbeat deadline before a leased seed range is re-leased")
		nodeTTL     = fs.Duration("node-ttl", 10*time.Second, "fleet: silence deadline before a worker is declared dead")
		fleetPoll   = fs.Duration("fleet-poll", 500*time.Millisecond, "fleet: idle-worker poll interval advertised to workers")
		leaseMax    = fs.Int("lease-attempts", 0, "fleet: times one seed range may be leased before its job fails (0 = default 5)")
		chaosSpec   = fs.String("chaos-spec", "", `fleet: deterministic wire-fault injection, e.g. "seed=7,drop=0.1,delay=0.2:20ms,dup=0.1,corrupt=0.05,partition=1500ms/6s" (chaos testing only)`)

		fleetSecret  = fs.String("fleet-secret", "", "fleet: shared secret keying the HMAC-SHA256 body tag every fleet RPC carries (must match on all nodes; empty = the empty key, an integrity check only)")
		verifySeeds  = fs.Int("verify-seeds", 0, "fleet: lease each verified seed range to this many distinct nodes and admit results only on majority digest agreement (0 or 1 = trust workers)")
		verifySample = fs.Float64("verify-sample", 1, "fleet: fraction of seed ranges quorum-verified when -verify-seeds is set (deterministic per range)")
		quarProbe    = fs.Duration("quarantine-probation", 2*time.Minute, "fleet: how long a quarantined node is refused leases before it may heal")
		lieSpec      = fs.String("lie-spec", "", `fleet: make this worker Byzantine, e.g. "seed=3,flip=1,skew=0.5,stalefp=0.2" (fault-injection testing only)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("simd"))
		return nil
	}
	if *coordinator && *join != "" {
		return errors.New("-coordinator and -join are mutually exclusive: a node is either the control plane or an executor")
	}
	mode := "single"
	switch {
	case *coordinator:
		mode = "coordinator"
	case *join != "":
		mode = "worker"
	}

	cspec, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}
	if cspec != nil && mode == "single" {
		return errors.New("-chaos-spec applies to fleet wire traffic: it requires -coordinator or -join")
	}
	inj := chaos.New(cspec) // nil spec → nil injector → every hook is a no-op

	lspec, err := chaos.ParseLieSpec(*lieSpec)
	if err != nil {
		return err
	}
	if lspec != nil && mode != "worker" {
		return errors.New("-lie-spec makes a worker Byzantine: it requires -join")
	}
	liar := chaos.NewLiar(lspec) // nil spec → nil liar → honest worker
	if *verifySeeds != 0 && mode != "coordinator" {
		return errors.New("-verify-seeds tunes lease cutting: it requires -coordinator")
	}
	if *verifySeeds < 0 {
		return errors.New("-verify-seeds must be >= 0")
	}
	if *fleetSecret != "" && mode == "single" {
		return errors.New("-fleet-secret authenticates fleet RPCs: it requires -coordinator or -join")
	}

	logger := log.New(out, "", log.LstdFlags)
	logf := func(format string, a ...any) { logger.Printf(format, a...) }
	if *quiet {
		logf = nil
	}

	dcfg := service.DaemonConfig{
		Addr: *addr,
		Service: service.Config{
			QueueCapacity:    *queue,
			Workers:          *workers,
			SimWorkers:       *simWorkers,
			ResultTTL:        *ttl,
			MaxSeedsPerJob:   *maxSeeds,
			JournalDir:       *journalDir,
			CheckpointRounds: *ckRounds,
		},
		DrainTimeout: *drain,
		Logf:         logf,
	}

	var worker *fleet.Worker
	switch mode {
	case "coordinator":
		coord := fleet.NewCoordinator(fleet.Config{
			LeaseSeeds:       *leaseSeeds,
			LeaseTTL:         *leaseTTL,
			NodeTTL:          *nodeTTL,
			PollInterval:     *fleetPoll,
			MaxLeaseAttempts: *leaseMax,
			VerifySeeds:      *verifySeeds,
			VerifySample:     *verifySample,
			Probation:        *quarProbe,
			Secret:           *fleetSecret,
			Logf:             logf,
		})
		defer coord.Close()
		dcfg.Service.Dispatcher = coord
		dcfg.Service.ExtraMetrics = chainMetrics(coord.WriteMetrics, inj)
		// Bind gives the coordinator the service's lease journal once the
		// journal replay has reconstructed banked results and in-flight
		// leases — before the listener opens, so no RPC beats it.
		dcfg.Bind = func(svc *service.Service) { coord.Bind(svc) }
		// Chaos middleware wraps only the fleet wire endpoints: the /v1 job
		// API and health endpoints stay clean so tests and operators can
		// still observe the daemon deterministically.
		dcfg.Routes = func(mux *http.ServeMux) { coord.RoutesWith(mux, inj.Middleware) }
	case "worker":
		client := service.NewClient(*join)
		client.HTTPClient = &http.Client{Transport: inj.Transport(http.DefaultTransport)}
		worker = fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: *join,
			NodeID:      *nodeID,
			Slots:       *slots,
			SimWorkers:  *simWorkers,
			Client:      client,
			Secret:      *fleetSecret,
			Lie:         liarHook(liar),
			Logf:        logf,
		})
		dcfg.Service.ExtraMetrics = chainMetrics(chainMetrics(worker.WriteMetrics, inj), liar)
	}

	journalDisplay := *journalDir
	if journalDisplay == "" {
		journalDisplay = "(in-memory)"
	}
	if logf != nil {
		logf("simd starting: %s mode=%s journal-dir=%s checkpoint-rounds=%d",
			buildinfo.String("simd"), mode, journalDisplay, *ckRounds)
	}

	d := service.NewDaemon(dcfg)
	if worker != nil {
		worker.Start()
		defer worker.Close()
	}
	return d.Run(ctx)
}

// chainMetrics appends a fault injector's counters (chaos wire faults,
// Byzantine lies) to a fleet metrics writer. Both injectors' WriteMetrics
// are nil-receiver-safe no-ops, so absent fault injection costs one call.
func chainMetrics[T interface{ WriteMetrics(io.Writer) error }](fn func(io.Writer) error, extra T) func(io.Writer) error {
	return func(w io.Writer) error {
		if err := fn(w); err != nil {
			return err
		}
		return extra.WriteMetrics(w)
	}
}

// liarHook adapts a *chaos.Liar to the worker's Lie hook; a nil liar
// installs no hook at all (the honest fast path stays allocation-free).
func liarHook(li *chaos.Liar) func([]service.SeedResult, string) ([]service.SeedResult, string) {
	if li == nil {
		return nil
	}
	return li.Apply
}
