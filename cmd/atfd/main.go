// Command atfd is the tuning-as-a-service daemon: it runs tuning sessions
// described by declarative JSON specs over an HTTP API and journals every
// cost evaluation to disk, so a killed daemon restarts and resumes its
// interrupted sessions deterministically.
//
// Usage:
//
//	atfd -addr 127.0.0.1:7521 -journal-dir ./atfd-journals
//
//	# create a session
//	curl -d @saxpy.json http://127.0.0.1:7521/v1/sessions
//	# follow its evaluation stream
//	curl http://127.0.0.1:7521/v1/sessions/<id>/evaluations
//	# fetch the best configuration found so far
//	curl http://127.0.0.1:7521/v1/sessions/<id>/best
//	# scrape process metrics / read one session's stats
//	curl http://127.0.0.1:7521/metrics
//	curl http://127.0.0.1:7521/v1/sessions/<id>/stats
//	# list the evaluation worker fleet (see cmd/atf-worker)
//	curl http://127.0.0.1:7521/v1/workers
//
// The daemon is also the coordinator of the distributed evaluation
// fleet: atf-worker processes register on /v1/workers and sessions'
// cost evaluations are dispatched to them, with speculative re-dispatch
// of straggler partitions and an in-process fallback, merged so results
// are bit-identical to a local run. With no workers registered the
// daemon evaluates everything in process, exactly as before; -fleet=false
// disables the coordinator entirely.
//
// Observability (docs/OPERATIONS.md): /metrics serves the process-wide
// counters and histograms in Prometheus text format, -pprof mounts the Go
// profiler under /debug/pprof/, and -trace narrates span events (space
// generation, exploration runs) as structured logs on stderr.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atf/internal/dist"
	"atf/internal/obs"
	"atf/internal/oclc"
	"atf/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7521", "HTTP listen address")
	dir := flag.String("journal-dir", "atfd-journals", "tuning journal directory")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	trace := flag.Bool("trace", false, "log structured span/trace events to stderr")
	fleet := flag.Bool("fleet", true, "coordinate remote eval workers (cmd/atf-worker) on /v1/workers")
	maxSpaceBytes := flag.Int64("max-space-bytes", 256<<20,
		"default per-session memory bound on lazy search-space construction; 0 = unbounded (specs override with max_space_bytes)")
	heartbeat := flag.Duration("worker-heartbeat", 2*time.Second, "worker heartbeat interval; liveness expires after 3 heartbeats")
	straggler := flag.Duration("straggler-after", 10*time.Second, "speculatively re-dispatch a batch partition after this long")
	sessionWorkers := flag.Int("session-workers", 0,
		"max fleet workers one session spreads its batches across; 0 = the whole live fleet")
	costCacheBytes := flag.Int64("shared-cost-cache-bytes", 64<<20,
		"byte budget of the cross-session cost-outcome cache; 0 disables sharing, -1 = unbounded")
	spaceCacheEntries := flag.Int("space-cache-entries", 64,
		"generated search spaces kept for re-submitted specs; 0 disables the cache, -1 = unbounded")
	compileCacheBytes := flag.Int64("compile-cache-bytes", oclc.DefaultCompileCacheBudget,
		"byte budget of the shared compiled-kernel cache; 0 disables it, -1 = unbounded")
	maxSessions := flag.Int("max-sessions", 0,
		"admission control: max concurrently running sessions before POST /v1/sessions answers 429; 0 = unlimited")
	maxInflightEvals := flag.Int("max-inflight-evals", 0,
		"backpressure: max concurrent cost evaluations across all sessions; 0 = unlimited")
	rotateBytes := flag.Int64("journal-rotate-bytes", 64<<20,
		"rotate a session journal into numbered segments past this size; 0 never rotates")
	journalCompact := flag.Bool("journal-compact", false,
		"rewrite rotated journal segments down to their deduplicated outcome maps")
	stateDir := flag.String("state-dir", "",
		"persistent warm-start directory (lazy-space censuses, cost outcomes, compiled kernels); empty disables")
	stateSync := flag.Duration("state-sync", 30*time.Second,
		"how often the warm-start state flushes to -state-dir; 0 only saves at shutdown")
	pipeline := flag.Bool("pipeline", true,
		"overlap batch dispatch with result merging for cost-oblivious techniques (exhaustive, random)")
	flag.Parse()

	oclc.SetCompileCacheBudget(*compileCacheBytes)

	if *trace {
		obs.EnableTracing(obs.NewTextTracer(os.Stderr, slog.LevelDebug))
	}

	m, err := server.NewManager(*dir)
	if err != nil {
		fail(err)
	}
	m.MaxSpaceBytes = *maxSpaceBytes
	m.SharedCostCacheBytes = *costCacheBytes
	m.SpaceCacheEntries = *spaceCacheEntries
	m.MaxSessions = *maxSessions
	m.MaxEvalsInFlight = *maxInflightEvals
	m.RotateBytes = *rotateBytes
	m.CompactSegments = *journalCompact
	m.Pipeline = *pipeline
	if *stateDir != "" {
		// Load the warm-start store before Resume so resumed sessions see
		// the restored censuses, outcomes and compiled kernels.
		if err := m.OpenState(*stateDir, *stateSync); err != nil {
			fail(err)
		}
		fmt.Printf("atfd: warm-start state in %s\n", *stateDir)
	}
	var coordinator *dist.Fleet
	if *fleet {
		// The evaluator factory must be in place before Resume so resumed
		// sessions dispatch to the fleet too.
		coordinator = dist.NewFleet(dist.Options{
			Heartbeat:      *heartbeat,
			StragglerAfter: *straggler,
			SessionWorkers: *sessionWorkers,
		})
		m.Evaluator = coordinator.SessionEvaluator
	}
	resumed, err := m.Resume()
	if err != nil {
		// Unreadable journals are reported but don't stop the daemon:
		// the intact sessions still run.
		fmt.Fprintln(os.Stderr, "atfd: resume:", err)
	}
	for _, s := range resumed {
		fmt.Printf("atfd: resumed session %s (%d evaluations journaled)\n",
			s.ID, s.Status().ResumedEvaluations)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	handler := (&server.API{Manager: m, Pprof: *enablePprof}).Handler()
	if coordinator != nil {
		// The fleet endpoints mount beside the session API; /v1/workers is
		// more specific than the API mux's patterns, so it wins.
		top := http.NewServeMux()
		top.Handle("/v1/workers", coordinator.Handler())
		top.Handle("/v1/workers/", coordinator.Handler()) // id heartbeats
		top.Handle("/", handler)
		handler = top
	}
	srv := &http.Server{Handler: handler}
	fmt.Printf("atfd: listening on http://%s (journals in %s)\n", ln.Addr(), m.Dir())
	if *enablePprof {
		fmt.Printf("atfd: pprof enabled at http://%s/debug/pprof/\n", ln.Addr())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("atfd: %v: interrupting sessions (journals stay resumable)\n", sig)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "atfd: serve:", err)
	}

	// Stop accepting requests, then interrupt the runs without writing
	// done records — the next start resumes them from their journals.
	srv.Close()
	m.Shutdown()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atfd:", err)
	os.Exit(1)
}
