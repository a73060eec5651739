package core

import (
	"fmt"
	"sync"
	"testing"
)

// obliviousWalker is the deterministic index walker plus the CostOblivious
// marker — the shape of exhaustive search as the pipeline sees it.
type obliviousWalker struct{ indexWalker }

func (w *obliviousWalker) CostOblivious() bool { return true }

// TestExplorePipelineDeterministic: pipelined dispatch must be
// bit-identical to the unpipelined engine for cost-oblivious techniques,
// across worker counts, batch sizes, and a mid-batch abort.
func TestExplorePipelineDeterministic(t *testing.T) {
	const n = 96
	sp := mustSpace(t, saxpyParams(n))
	opts := ExploreOptions{Seed: 42, Record: true, CacheCosts: true}
	cases := []struct {
		name      string
		mk        func() Technique
		abort     AbortCondition
		batchSize int
	}{
		{"exhaustive", func() Technique { return &obliviousWalker{} }, Evaluations(60), 0},
		{"random", func() Technique { return &randomTechnique{} }, Evaluations(60), 0},
		{"mid-batch-abort", func() Technique { return &obliviousWalker{} }, Evaluations(13), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Explore(sp, tc.mk(), quadCost(n), tc.abort,
				withWorkers(opts, 8, tc.batchSize))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				pipelined := withWorkers(opts, workers, tc.batchSize)
				pipelined.Pipeline = true
				got, err := Explore(sp, tc.mk(), quadCost(n), tc.abort, pipelined)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, ref, got, tc.name)
			}
		})
	}
}

// TestExplorePipelineIgnoredForAdaptive: randomTechnique carries no
// CostOblivious marker here (it is wrapped), so an adaptive stand-in —
// the plain indexWalker, which records its reports — must keep the strict
// draw→report cadence even with Pipeline set, and produce identical
// results.
func TestExplorePipelineIgnoredForAdaptive(t *testing.T) {
	const n = 48
	sp := mustSpace(t, saxpyParams(n))
	opts := ExploreOptions{Record: true, CacheCosts: true}
	ref, err := Explore(sp, &indexWalker{}, quadCost(n), Evaluations(40),
		withWorkers(opts, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	pipelined := withWorkers(opts, 4, 0)
	pipelined.Pipeline = true
	got, err := Explore(sp, &indexWalker{}, quadCost(n), Evaluations(40), pipelined)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got, "adaptive under Pipeline")
}

// TestExplorePipelineOverlapsDispatch pins the overlap itself: with
// pipelining the engine draws and dispatches batch 1 (observable through
// OnBatch, which runs synchronously on the engine goroutine) before batch
// 0's costs are reported to the technique.
func TestExplorePipelineOverlapsDispatch(t *testing.T) {
	const n = 48
	sp := mustSpace(t, saxpyParams(n))
	for _, pipeline := range []bool{false, true} {
		var mu sync.Mutex
		var events []string
		tech := &reportLoggingWalker{log: func(ev string) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}
		_, err := Explore(sp, tech, quadCost(n), Evaluations(12),
			ExploreOptions{
				CacheCosts: true,
				Workers:    2, BatchSize: 4, Pipeline: pipeline,
				OnBatch: func(mark BatchMark) {
					mu.Lock()
					events = append(events, fmt.Sprintf("dispatch%d", mark.Index))
					mu.Unlock()
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		d1, r0 := indexOf(events, "dispatch1"), indexOf(events, "report")
		if d1 < 0 || r0 < 0 {
			t.Fatalf("pipeline=%v: missing events in %v", pipeline, events)
		}
		if pipeline && d1 > r0 {
			t.Fatalf("pipeline=true: batch 1 dispatched after batch 0's report: %v", events)
		}
		if !pipeline && d1 < r0 {
			t.Fatalf("pipeline=false: batch 1 dispatched before batch 0's report: %v", events)
		}
	}
}

// reportLoggingWalker is a cost-oblivious index walker that logs its first
// cost report.
type reportLoggingWalker struct {
	indexWalker
	log      func(string)
	reported bool
}

func (w *reportLoggingWalker) CostOblivious() bool { return true }

func (w *reportLoggingWalker) ReportCost(cost Cost) {
	if !w.reported {
		w.reported = true
		w.log("report")
	}
	w.indexWalker.ReportCost(cost)
}

func indexOf(events []string, want string) int {
	for i, ev := range events {
		if ev == want {
			return i
		}
	}
	return -1
}
