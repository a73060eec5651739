// Command atf-worker is a remote evaluation worker for the atfd
// coordinator: it registers with the daemon, receives batch partitions
// of tuning configurations over HTTP, evaluates them with an in-process
// pool built from the session's spec, and streams the costs back. Add
// workers to scale a tuning session's evaluation throughput across
// machines; kill them freely — the coordinator re-dispatches whatever a
// dead worker left unfinished, and results are bit-identical to a local
// run regardless (docs/OPERATIONS.md, "Running a worker fleet").
//
// Usage:
//
//	atf-worker -coordinator http://127.0.0.1:7521 -addr 127.0.0.1:7621
//
// The worker advertises http://<addr> to the coordinator; when the
// coordinator reaches it through another address (NAT, containers), set
// -advertise explicitly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"atf/internal/dist"
	"atf/internal/obs"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:7521", "coordinator (atfd) base URL")
	addr := flag.String("addr", "127.0.0.1:0", "HTTP listen address for eval requests")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default http://<addr>)")
	name := flag.String("name", "", "worker name in fleet listings and metrics (default host:port)")
	parallelism := flag.Int("parallelism", 0, "concurrent evaluations per request (0 = NumCPU)")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	url := *advertise
	if url == "" {
		url = "http://" + ln.Addr().String()
	}

	ws := dist.NewWorkerServer(dist.WorkerOptions{Name: *name, Parallelism: *parallelism})
	defer ws.Close()
	mux := http.NewServeMux()
	mux.Handle("/", ws.Handler())
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default().WritePrometheus(w)
	})
	srv := &http.Server{Handler: mux}
	fmt.Printf("atf-worker: serving evals on %s (coordinator %s)\n", url, *coordinator)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hbCh := make(chan error, 1)
	go func() {
		hbCh <- dist.RunHeartbeat(ctx, nil, *coordinator, dist.RegisterRequest{Name: *name, URL: url},
			func(format string, args ...any) {
				fmt.Printf("atf-worker: "+format+"\n", args...)
			})
	}()

	select {
	case <-ctx.Done():
		fmt.Println("atf-worker: interrupted; in-flight partitions are re-dispatched by the coordinator")
	case err := <-hbCh:
		if err != nil && ctx.Err() == nil {
			fail(err) // permanent rejection by the coordinator
		}
	case err := <-errCh:
		fail(err)
	}
	srv.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atf-worker:", err)
	os.Exit(1)
}
