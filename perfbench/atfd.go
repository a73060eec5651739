package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"atf"
	"atf/internal/dist"
	"atf/internal/obs"
	"atf/internal/server"
	"atf/internal/server/client"
)

const (
	// sessionEvals is the evaluation budget of every atfd-warm session.
	sessionEvals = 40
	// warmSessions is the number of sessions of one repetition's
	// measured phase, a few seconds of work.
	warmSessions = 400
)

// specPool is atfd-warm's tenant specs: cap-64 XgemmDirect tunings of
// one kernel and input, two each of annealing (strict batch cadence) and
// random and exhaustive search (pipelined cadence), with technique seeds
// derived from seed.
func specPool(seed int64) []*atf.Spec {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"annealing", "annealing", "random", "random", "exhaustive", "exhaustive"}
	specs := make([]*atf.Spec, len(kinds))
	for i, k := range kinds {
		specs[i] = gemmSpec(fmt.Sprintf("pool%d-%s", i, k), k, rng.Int63n(1<<31)+1, sessionEvals)
	}
	return specs
}

// daemon is an in-process atfd: a session manager configured with atfd's
// flag defaults, the worker-fleet coordinator (no workers registered)
// as its evaluator, and the HTTP API on a loopback listener.
type daemon struct {
	m      *server.Manager
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client
}

func startDaemon(dir string, clients int, log *spanLog) (*daemon, error) {
	m, err := server.NewManager(dir)
	if err != nil {
		return nil, err
	}
	m.MaxSpaceBytes = 256 << 20
	m.SharedCostCacheBytes = 64 << 20
	m.SpaceCacheEntries = 64
	m.RotateBytes = 64 << 20
	m.Pipeline = true
	fleet := dist.NewFleet(dist.Options{})
	m.Evaluator = fleet.SessionEvaluator
	if log != nil {
		m.Evaluator = func(id string, spec *atf.Spec, local atf.CostFunction, replay map[string]atf.Outcome) atf.BatchEvaluator {
			return traceEvaluator(fleet.SessionEvaluator(id, spec, local, replay), log, id)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/workers", fleet.Handler())
	mux.Handle("/v1/workers/", fleet.Handler())
	mux.Handle("/", (&server.API{Manager: m}).Handler())
	d := &daemon{m: m, srv: &http.Server{Handler: mux}, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) // returns http.ErrServerClosed once stop closes the server
	}()
	// The clients share one transport that holds at most one connection
	// per client.
	d.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	d.cl = &client.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tr}}
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Close()
	<-d.served
	d.tr.CloseIdleConnections()
	d.m.Shutdown()
}

// sessionRun is one client-observed session.
type sessionRun struct {
	spec     int
	id       string
	start    time.Time
	created  time.Duration // Create returned
	streamed time.Duration // evaluation stream ended
	done     time.Duration // Best returned
	records  int
	best     server.BestResponse
	err      error
}

// session runs spec to the end as a client: Create, follow the
// evaluation stream to its end, read Best.
func (d *daemon) session(ctx context.Context, spec *atf.Spec) sessionRun {
	var r sessionRun
	r.start = time.Now()
	st, err := d.cl.Create(ctx, spec)
	r.created = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	r.id = st.ID
	err = d.cl.Evaluations(ctx, st.ID, 0, func(server.EvalRecord) bool { r.records++; return true })
	r.streamed = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	r.best, r.err = d.cl.Best(ctx, st.ID)
	r.done = time.Since(r.start)
	return r
}

// record adds the session's client-side spans: the session (Create to
// the end of the evaluation stream) and its Create, stream and Best calls.
func (r sessionRun) record(log *spanLog) {
	if r.err != nil {
		return
	}
	s := log.record("session", r.id, 0, r.start, r.streamed)
	log.record("server.create", r.id, s, r.start, r.created)
	log.record("server.stream", r.id, s, r.start.Add(r.created), r.streamed-r.created)
	log.record("server.best", r.id, s, r.start.Add(r.streamed), r.done-r.streamed)
}

// fingerprint identifies what a session computed.
func (r sessionRun) fingerprint() string {
	best := "none"
	if r.best.Best != nil {
		best = r.best.Best.Key()
	}
	return fmt.Sprintf("best=%s cost=%v evaluations=%d valid=%d", best, r.best.BestCost, r.best.Evaluations, r.best.Valid)
}

// checkSession checks that a session ended done with every evaluation
// streamed.
func checkSession(r sessionRun) error {
	switch {
	case r.err != nil:
		return r.err
	case r.best.State != server.StateDone:
		return fmt.Errorf("session %s ended %s", r.id, r.best.State)
	case r.records != sessionEvals || r.best.Evaluations != sessionEvals:
		return fmt.Errorf("session %s streamed %d records and reports %d evaluations, want %d",
			r.id, r.records, r.best.Evaluations, sessionEvals)
	}
	return nil
}

// checkCacheRatios checks that the measured phase was served entirely
// from the daemon's shared caches: every cost and space lookup hit.
func checkCacheRatios(costHits, costMisses, spaceHits, spaceMisses float64) error {
	if c, s := ratio(costHits, costHits+costMisses), ratio(spaceHits, spaceHits+spaceMisses); c != 1 || s != 1 {
		return fmt.Errorf("shared cache hit ratios in the measured phase: cost %g (%g/%g), space %g (%g/%g), want 1",
			c, costHits, costHits+costMisses, s, spaceHits, spaceHits+spaceMisses)
	}
	return nil
}

// runAtfdWarm brings up a daemon, runs every pool spec once cold
// (set-up), then lets one closed-loop client per CPU resubmit pool specs
// in seeded order, warmSessions in all: tenants served from the shared
// caches.
func runAtfdWarm(rep repConfig) (*repResult, error) {
	var log *spanLog
	if rep.Traced {
		log = newSpanLog()
	}
	clients := runtime.NumCPU()
	specs := specPool(rep.Seed)
	// A session that never ends must not hang the run.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	dir := filepath.Join(rep.Work, "journals", fmt.Sprintf("atfd-warm-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	snap0 := obs.Default().Snapshot()
	t0 := time.Now()
	d, err := startDaemon(dir, clients, log)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Cold pass: the clients drain the pool once, in pool order.
	cold := make([]sessionRun, len(specs))
	next := 0
	var mu sync.Mutex
	closedLoop(clients, func() bool {
		mu.Lock()
		i := next
		next++
		mu.Unlock()
		if i >= len(specs) {
			return false
		}
		cold[i] = d.session(ctx, specs[i])
		cold[i].spec = i
		return true
	})
	setup := time.Since(t0)
	snap1 := obs.Default().Snapshot()

	out := &repResult{SetupS: setup.Seconds(), Attempted: len(specs)}
	var coldPrints []string
	for i, r := range cold {
		err := checkSession(r)
		if err == nil {
			err = verifyBest(r.best.Best)
		}
		if err != nil {
			out.fail("cold %s: %v", specs[i].Name, err)
		}
		coldPrints = append(coldPrints, r.fingerprint())
	}

	// Measured phase: the clients run warmSessions sessions of specs
	// drawn in seeded order.
	order := rand.New(rand.NewSource(rep.Seed ^ 0x5e55))
	warm := make([]sessionRun, warmSessions)
	for i := range warm {
		warm[i].spec = order.Intn(len(specs))
	}
	next = 0
	t1 := time.Now()
	closedLoop(clients, func() bool {
		mu.Lock()
		i := next
		next++
		mu.Unlock()
		if i >= len(warm) {
			return false
		}
		spec := warm[i].spec
		warm[i] = d.session(ctx, specs[spec])
		warm[i].spec = spec
		return true
	})
	measured := time.Since(t1)
	snap2 := obs.Default().Snapshot()

	out.MeasuredS = measured.Seconds()
	out.PeakRSSMB = peakRSSMB()
	out.Attempted += len(warm)
	for _, r := range warm {
		err := checkSession(r)
		if err == nil && r.fingerprint() != coldPrints[r.spec] {
			err = fmt.Errorf("session %s computed %s, its cold run %s", r.id, r.fingerprint(), coldPrints[r.spec])
		}
		if err != nil {
			out.fail("%v", err)
			continue
		}
		out.Evals += r.best.Evaluations
		out.RunsMs = append(out.RunsMs, float64(r.streamed)/1e6)
	}
	m := delta{snap1, snap2}
	if err := checkCacheRatios(m.counter("atf_server_cost_cache_hits_total"), m.counter("atf_server_cost_cache_misses_total"),
		m.counter("atf_server_space_cache_hits_total"), m.counter("atf_server_space_cache_misses_total")); err != nil {
		out.fail("%v", err)
	}
	out.Result = fmt.Sprint(coldPrints)
	if log != nil {
		for _, r := range append(cold, warm...) {
			r.record(log)
		}
		out.Layers = atfdLayers(log, warm, delta{snap0, snap1}, m, setup*time.Duration(runtime.NumCPU()))
		path := filepath.Join(rep.Work, "spans", fmt.Sprintf("atfd-warm-seed%d-rep%d.jsonl", rep.Seed, rep.Index))
		if err := log.write(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// closedLoop runs n clients, each calling op until it returns false, and
// waits for all of them.
func closedLoop(n int, op func() bool) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op() {
			}
		}()
	}
	wg.Wait()
}

// atfdLayers derives the per-layer metrics of a traced atfd-warm
// repetition. The client-observed timings and the dist.evaluate spans of
// each measured session give the server and dist numbers; the kernel layers
// only work during set-up (the cold pass), so theirs cover set-up, and
// their shares are of cpuTime, the set-up's wall time times the number of
// CPUs.
func atfdLayers(log *spanLog, warm []sessionRun, setupDelta, measured delta, cpuTime time.Duration) map[string]float64 {
	evalSpans := map[string][]spanRec{}
	for _, r := range log.records() {
		if r.Name == "dist.evaluate" {
			evalSpans[r.Req] = append(evalSpans[r.Req], r)
		}
	}
	var create, stream, self, batchUs []float64
	var sessions, evaluate float64
	for _, r := range warm {
		if r.err != nil {
			continue
		}
		rec := spanRec{Start: int64(r.start.Sub(log.t0)), End: int64(r.start.Add(r.streamed).Sub(log.t0))}
		busy := covered(rec, evalSpans[r.id])
		for _, e := range evalSpans[r.id] {
			batchUs = append(batchUs, float64(e.dur())/1e3)
		}
		create = append(create, float64(r.created)/1e6)
		stream = append(stream, float64(r.streamed-r.created)/1e6)
		self = append(self, float64(r.streamed-busy)/1e6)
		sessions += float64(r.streamed)
		evaluate += float64(busy)
	}
	coldEvals := float64(len(specPool(0)) * sessionEvals)
	l := map[string]float64{
		"core.generate_s":              setupDelta.hist("atf_spacegen_seconds").Sum,
		"core.sweep_configs":           measured.counter("atf_space_iter_configs_total"),
		"core.sweep_descents":          measured.counter("atf_space_iter_descents_total"),
		"core.cost_cache_hits":         measured.counter("atf_evaluations_cached_total"),
		"server.create_ms_p50":         median(create),
		"server.stream_ms_p50":         median(stream),
		"server.self_ms_p50":           median(self),
		"server.cost_cache_hit_ratio":  cacheRatio(measured, "atf_server_cost_cache"),
		"server.space_cache_hit_ratio": cacheRatio(measured, "atf_server_space_cache"),
		"dist.evaluate_batch_us_p50":   median(batchUs),
		"dist.evaluate_share":          ratio(evaluate, sessions),
		"dist.batches_local":           measured.counter("atf_dist_batches_local_total"),
	}
	kernelLayers(l, setupDelta, cpuTime.Seconds(), coldEvals)
	return l
}

func cacheRatio(d delta, prefix string) float64 {
	hits := d.counter(prefix + "_hits_total")
	return ratio(hits, hits+d.counter(prefix+"_misses_total"))
}
