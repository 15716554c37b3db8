// Command csbd is the csb dataset-generation daemon: it accepts generation
// jobs over HTTP, runs them on a bounded worker pool with per-job
// cancellation, and serves the resulting edge-list artifacts from a
// content-addressed cache.
//
// Usage:
//
//	csbd -addr :8080 -workers 4 -queue 32 -cache-bytes 268435456
//
// Job lifecycle:
//
//	curl -X POST localhost:8080/v1/jobs -d '{"generator":"pgsk","edges":20000,"seed":7}'
//	curl localhost:8080/v1/jobs/j1
//	curl localhost:8080/v1/jobs/j1/artifact -o syn.tsv
//	curl -X DELETE localhost:8080/v1/jobs/j1
//
// Distributed operation (-role): a coordinator additionally listens for
// worker processes on -dist-addr and ships remotable engine stages to them;
// workers join with -join and execute tasks. Where a task runs never changes
// artifact bytes: they are identical to standalone operation — see DESIGN.md.
//
//	csbd -role coordinator -addr :8080 -dist-addr :9444 -min-workers 2
//	csbd -role worker -join localhost:9444 -name w1
//
// Workers also execute evaluation-grid cells: point them at a csbeval
// coordinator (csbeval -listen) to shard an experiment grid — see
// cmd/csbeval.
//
// Durability (-journal): job lifecycle events are appended to a
// CRC-checksummed write-ahead log; on restart the daemon, standalone or
// coordinator, re-enqueues jobs that were accepted but not finished and
// rebuilds them from their specs.
// Chaos soaks (-chaos-net): the coordinator/worker RPC wire runs through a
// deterministic seeded fault injector (see internal/chaosnet.ParseSpec for
// the spec grammar).
//
//	csbd -journal /var/lib/csbd/journal.wal
//	csbd -role worker -join localhost:9444 -chaos-net latency=2ms,corrupt=0.01,seed=7,grace=4
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"csb/internal/chaosnet"
	"csb/internal/cluster"
	"csb/internal/dist"
	_ "csb/internal/eval" // register the eval/cell task kind so -role worker can shard csbeval grids
	"csb/internal/journal"
	"csb/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "csbd:", err)
		os.Exit(1)
	}
}

// run executes the daemon; factored from main for testing. When ready is
// non-nil it receives the bound listen address once the server accepts
// connections (tests pass ":0" and read the port from here); closing stop
// triggers the same graceful shutdown as SIGINT (nil blocks forever).
func run(args []string, stdout io.Writer, ready chan<- string, stop <-chan struct{}) error {
	// Every log line goes through logger: the coordinator's and the
	// worker's session goroutines log beside run's own, and a log.Logger
	// writes each line whole, under its lock.
	logger := log.New(stdout, "", 0)
	fs := flag.NewFlagSet("csbd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 2, "concurrent generation workers")
		queue      = fs.Int("queue", 16, "queued-job bound (full queue sheds with 429)")
		jobTimeout = fs.Duration("job-timeout", 10*time.Minute, "per-job deadline")
		maxEdges   = fs.Int64("max-edges", 50_000_000, "largest admissible target edge count")
		cacheBytes = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "in-memory artifact cache budget")
		cacheDir   = fs.String("cache-dir", "", "disk spill directory for evicted artifacts (empty disables)")
		cacheDisk  = fs.Int64("cache-disk-bytes", 0, "disk spill budget (0 = 4x cache-bytes)")
		nodes      = fs.Int("nodes", 1, "virtual cluster nodes jobs run on")
		cores      = fs.Int("cores", 0, "cores per virtual node (0 = 1)")
		jobRetries = fs.Int("job-retries", 1, "re-attempts for transiently failed jobs (negative disables)")
		taskRetry  = fs.Int("max-task-retries", 0, "engine task retry budget (0 = default, negative disables)")
		faultRate  = fs.Float64("fault-rate", 0, "injected engine fault rate for chaos runs (0 disables)")
		faultSeed  = fs.Uint64("fault-seed", 1, "seed of the deterministic fault plan")
		replaySess = fs.Int("replay-sessions", 0, "concurrent live-replay session cap (0 = default)")
		role       = fs.String("role", "standalone", "process role: standalone, coordinator or worker")
		distAddr   = fs.String("dist-addr", ":9444", "coordinator RPC listen address for workers (role=coordinator)")
		join       = fs.String("join", "", "coordinator RPC address to join (role=worker)")
		name       = fs.String("name", "", "worker name reported to the coordinator (role=worker)")
		minWorkers = fs.Int("min-workers", 0, "live workers required before /readyz reports ready (role=coordinator)")
		journalLog = fs.String("journal", "", "write-ahead log for crash-safe job resume (empty disables)")
		chaosSpec  = fs.String("chaos-net", "", "wire fault spec for chaos soaks, e.g. latency=2ms,corrupt=0.01,seed=7 (dist roles only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var faults *chaosnet.Faults
	if *chaosSpec != "" {
		if *role != "coordinator" && *role != "worker" {
			return fmt.Errorf("-chaos-net injects on the coordinator/worker wire; it requires -role coordinator or worker")
		}
		ccfg, err := chaosnet.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		faults = chaosnet.MustNew(ccfg) // spec already validated by ParseSpec
	}

	if *role == "worker" {
		return runWorker(*join, *name, faults, logger, ready, stop)
	}
	if *role != "standalone" && *role != "coordinator" {
		return fmt.Errorf("unknown -role %q (want standalone, coordinator or worker)", *role)
	}

	shape := serve.EngineShape{
		Nodes: *nodes, CoresPerNode: *cores,
		MaxTaskRetries: *taskRetry,
	}
	if *faultRate != 0 {
		shape.Faults = cluster.NewFaultPlan(*faultSeed, *faultRate)
	}
	var jl *journal.Journal
	if *journalLog != "" {
		var err error
		if jl, err = journal.Open(*journalLog); err != nil {
			return err
		}
		defer jl.Close()
	}

	var coord *dist.Coordinator
	if *role == "coordinator" {
		dcfg := dist.Config{
			Addr: *distAddr,
			Logf: logger.Printf,
		}
		if faults != nil {
			// Inject on the accept side: every worker session runs through
			// the fault model regardless of how the worker dialed.
			ln, err := net.Listen("tcp", *distAddr)
			if err != nil {
				return err
			}
			dcfg.Listener = faults.Listen(ln)
			logger.Printf("csbd chaos-net active on worker RPC: %s", *chaosSpec)
		}
		var err error
		coord, err = dist.NewCoordinator(dcfg)
		if err != nil {
			return err
		}
		defer coord.Close()
		logger.Printf("csbd coordinator accepting workers on %s", coord.Addr())
	}
	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		JobRetries:     *jobRetries,
		MaxEdges:       *maxEdges,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheDisk,
		Shape:          shape,
		ReplaySessions: *replaySess,
		MinWorkers:     *minWorkers,
		Dist:           coord,
		Journal:        jl,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if jl != nil {
		if m := srv.Metrics().Journal; m != nil {
			logger.Printf("csbd journal %s: replayed %d records, resumed %d jobs",
				*journalLog, m.Replayed, m.JobsResumed)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Printf("csbd listening on %s (workers=%d queue=%d)", ln.Addr(), *workers, *queue)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, cancel running
	// jobs via srv.Close (deferred), drain connections.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-ctx.Done():
	case <-stop:
	}
	logger.Println("csbd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutdownCtx)
}

// runWorker executes the worker role: join the coordinator and serve
// dispatched tasks. SIGTERM drains gracefully — the worker tells the
// coordinator to stop routing to it, finishes its in-flight tasks, and
// exits clean; SIGINT (or a second signal, or stop closing) cancels hard.
func runWorker(join, name string, faults *chaosnet.Faults, logger *log.Logger, ready chan<- string, stop <-chan struct{}) error {
	if join == "" {
		return fmt.Errorf("role worker requires -join coordinator address")
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	wcfg := dist.WorkerConfig{
		Coordinator: join,
		Name:        name,
		Logf:        logger.Printf,
	}
	if faults != nil {
		wcfg.WrapConn = faults.Wrap
		logger.Println("csbd chaos-net active on coordinator connection")
	}
	w, err := dist.NewWorker(wcfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		for {
			select {
			case sig := <-sigs:
				if sig == syscall.SIGTERM && !w.Draining() {
					logger.Printf("csbd worker %q draining (signal again to force)", name)
					w.Drain()
					continue
				}
				cancel()
			case <-stop: // nil blocks forever, which is fine
				cancel()
			case <-ctx.Done():
				return
			}
		}
	}()
	logger.Printf("csbd worker %q joining %s", name, join)
	if ready != nil {
		ready <- name
	}
	return w.Run(ctx)
}
