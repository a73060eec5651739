package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"atf"
	"atf/internal/core"
	"atf/internal/obs"
	"atf/internal/search"
)

// The checks must reject a deliberately wrong reference for every
// workload; otherwise a passing run would prove nothing.

func TestGemmDistinctRejectsWrongBest(t *testing.T) {
	const budget = 8
	rep := repConfig{Seed: 3, Work: t.TempDir()}
	a, err := runLibrary(rep, "gemm-distinct", gemmSpec("a", "random", 3, budget), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGemmRun(a.res, budget); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	if err := checkGemmRun(a.res, budget+1); err == nil {
		t.Error("run with fewer evaluations than the budget accepted")
	}

	b, err := runLibrary(rep, "gemm-distinct", gemmSpec("b", "random", 3, budget), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := libraryResult(a), libraryResult(b)
	if f := disagreements([]*repResult{ra, rb}); len(f) != 0 {
		t.Fatalf("two runs of one seed disagree: %v", f)
	}
	wrong := *a.res
	wrong.Best = a.space.At(0)
	if wrong.Best.Key() == a.res.Best.Key() {
		wrong.Best = a.space.At(1)
	}
	rw := libraryResult(&libraryRun{res: &wrong, pieces: a.pieces})
	if f := disagreements([]*repResult{ra, rw}); len(f) != 1 {
		t.Errorf("wrong expected best accepted: %v", f)
	}
}

func TestOverheadSweepRejectsWrongCount(t *testing.T) {
	spec := gemmSpec("sweep", "exhaustive", 1, 0)
	noCache := false
	spec.CacheCosts = &noCache
	lr, err := runLibrary(repConfig{Work: t.TempDir()}, "overhead-sweep", spec, zeroCost, sweepPiece)
	if err != nil {
		t.Fatal(err)
	}
	count, _, err := core.CountGroup(atf.G(lr.build.Params...), core.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(lr.res, count); err != nil {
		t.Fatalf("correct sweep rejected: %v", err)
	}
	if err := checkSweep(lr.res, count+1); err == nil {
		t.Error("wrong expected count accepted")
	}
	oneInvalid := *lr.res
	oneInvalid.Valid--
	if err := checkSweep(&oneInvalid, count); err == nil {
		t.Error("sweep with an invalid evaluation accepted")
	}
}

func TestAtfdWarmRejectsCacheMiss(t *testing.T) {
	if err := checkCacheRatios(40, 0, 1, 0); err != nil {
		t.Fatalf("all-hit phase rejected: %v", err)
	}
	for _, c := range [][4]float64{{39, 1, 1, 0}, {40, 0, 0, 1}, {0, 0, 0, 0}} {
		if err := checkCacheRatios(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("hits/misses %v accepted", c)
		}
	}

	// A real daemon: a resubmitted spec is all hits, a new input is not.
	d, err := startDaemon(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	ctx := context.Background()
	spec := gemmSpec("warm", "random", 5, sessionEvals)
	phase := func(s *atf.Spec) error {
		before := obs.Default().Snapshot()
		if err := checkSession(d.session(ctx, s)); err != nil {
			t.Fatal(err)
		}
		m := delta{before, obs.Default().Snapshot()}
		return checkCacheRatios(m.counter("atf_server_cost_cache_hits_total"), m.counter("atf_server_cost_cache_misses_total"),
			m.counter("atf_server_space_cache_hits_total"), m.counter("atf_server_space_cache_misses_total"))
	}
	if err := phase(spec); err == nil {
		t.Error("cold session passed as all cache hits")
	}
	if err := phase(spec); err != nil {
		t.Errorf("resubmitted spec: %v", err)
	}
	other := *spec
	other.Cost.Seed = 2
	if err := phase(&other); err == nil {
		t.Error("session on new input data passed as all cache hits")
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	log := newSpanLog()
	r := log.rollup("x", 0)
	ex := traceTechnique(search.NewExhaustive(), r, r)
	if _, ok := ex.(core.BatchTechnique); !ok {
		t.Error("exhaustive lost BatchTechnique")
	}
	if _, ok := ex.(core.CostOblivious); !ok {
		t.Error("exhaustive lost CostOblivious")
	}
	rnd := traceTechnique(search.NewRandom(), r, r)
	if _, ok := rnd.(core.BatchTechnique); ok {
		t.Error("random gained BatchTechnique")
	}
	if _, ok := rnd.(core.CostOblivious); !ok {
		t.Error("random lost CostOblivious")
	}
	if _, ok := traceTechnique(search.NewAnnealing(), r, r).(core.CostOblivious); ok {
		t.Error("annealing gained CostOblivious")
	}

	observe := func(time.Time, time.Duration, error) {}
	cf, err := (&atf.OpenCL{Platform: "NVIDIA", Device: "K20c", Source: "__kernel void k() {}", Kernel: "k",
		GlobalSize: func(*core.Config) []int64 { return []int64{1} },
		LocalSize:  func(*core.Config) []int64 { return []int64{1} }}).CostFunction()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := traceCost(cf, observe).(core.CloneableCostFunction); !ok {
		t.Error("cost function lost CloneableCostFunction")
	}
	if _, ok := traceCost(zeroCost, observe).(core.CloneableCostFunction); ok {
		t.Error("cost function gained CloneableCostFunction")
	}

	pool, err := core.NewPoolEvaluator(zeroCost, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ev := traceEvaluator(pool, log, "s")
	c, ok := ev.(io.Closer)
	if !ok {
		t.Fatal("evaluator lost io.Closer")
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestCovered(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	kids := []spanRec{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists equal to what the
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	same := func(what string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
