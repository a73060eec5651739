package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers returns opts with Workers and BatchSize set.
func withWorkers(opts ExploreOptions, workers, batchSize int) ExploreOptions {
	opts.Workers, opts.BatchSize = workers, batchSize
	return opts
}

// sameResult asserts the determinism contract of Explore: Best,
// BestCost, Improvements (index, config, cost) and the evaluation counters
// match the sequential reference run.
func sameResult(t *testing.T, ref, got *Result, label string) {
	t.Helper()
	if (ref.Best == nil) != (got.Best == nil) {
		t.Fatalf("%s: best presence differs: %v vs %v", label, ref.Best, got.Best)
	}
	if ref.Best != nil && !ref.Best.Equal(got.Best) {
		t.Fatalf("%s: best differs: %v vs %v", label, ref.Best, got.Best)
	}
	if ref.BestCost.String() != got.BestCost.String() {
		t.Fatalf("%s: best cost differs: %v vs %v", label, ref.BestCost, got.BestCost)
	}
	if ref.Evaluations != got.Evaluations || ref.Valid != got.Valid {
		t.Fatalf("%s: counters differ: (%d,%d) vs (%d,%d)", label,
			ref.Evaluations, ref.Valid, got.Evaluations, got.Valid)
	}
	if len(ref.Improvements) != len(got.Improvements) {
		t.Fatalf("%s: %d improvements vs %d", label, len(ref.Improvements), len(got.Improvements))
	}
	for i := range ref.Improvements {
		r, g := ref.Improvements[i], got.Improvements[i]
		if r.Index != g.Index || !r.Config.Equal(g.Config) || r.Cost.String() != g.Cost.String() {
			t.Fatalf("%s: improvement %d differs: {%d %v %v} vs {%d %v %v}", label, i,
				r.Index, r.Config, r.Cost, g.Index, g.Config, g.Cost)
		}
	}
	if len(ref.History) != len(got.History) {
		t.Fatalf("%s: history length differs: %d vs %d", label, len(ref.History), len(got.History))
	}
	for i := range ref.History {
		r, g := ref.History[i], got.History[i]
		if r.Index != g.Index || !r.Config.Equal(g.Config) ||
			r.Cost.String() != g.Cost.String() || r.Cached != g.Cached {
			t.Fatalf("%s: history %d differs: {%d %v %v cached=%v} vs {%d %v %v cached=%v}",
				label, i, r.Index, r.Config, r.Cost, r.Cached, g.Index, g.Config, g.Cost, g.Cached)
		}
	}
}

// TestExploreParallelDeterministic is the determinism table test: the
// parallel engine with workers ∈ {1, 2, 8} must produce identical Best,
// BestCost and Improvements to the sequential Explore for exhaustive and
// seeded-random techniques on the saxpy space.
func TestExploreParallelDeterministic(t *testing.T) {
	const n = 96
	sp := mustSpace(t, saxpyParams(n))
	techniques := []struct {
		name string
		mk   func() Technique
	}{
		{"exhaustive", func() Technique { return &indexWalker{} }},
		{"random", func() Technique { return &randomTechnique{} }},
	}
	for _, tc := range techniques {
		t.Run(tc.name, func(t *testing.T) {
			opts := ExploreOptions{Seed: 42, Record: true, CacheCosts: true}
			ref, err := Explore(sp, tc.mk(), quadCost(n), Evaluations(60), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := Explore(sp, tc.mk(), quadCost(n), Evaluations(60),
					withWorkers(opts, workers, 0))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, ref, got, tc.name)
			}
		})
	}
}

// TestExploreParallelAbortMidBatch pins the abort boundary: when the abort
// condition fires in the middle of a batch, the surplus speculative
// evaluations are discarded, so counters and history match the sequential
// run even when the budget is not a multiple of the batch size.
func TestExploreParallelAbortMidBatch(t *testing.T) {
	const n = 48
	sp := mustSpace(t, saxpyParams(n))
	opts := ExploreOptions{Record: true}
	ref, err := Explore(sp, &indexWalker{}, quadCost(n), Evaluations(13), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Explore(sp, &indexWalker{}, quadCost(n), Evaluations(13),
		withWorkers(opts, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got, "mid-batch abort")
}

// TestExploreParallelConcurrentCacheDedup checks the sharded cache's
// in-flight deduplication: a technique stuck on one configuration must pay
// the cost function exactly once even with many concurrent workers.
func TestExploreParallelConcurrentCacheDedup(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	var calls atomic.Int64
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		calls.Add(1)
		return SingleCost(1), nil
	})
	res, err := Explore(sp, &stuckTechnique{}, cf, Evaluations(64),
		ExploreOptions{CacheCosts: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 64 {
		t.Fatalf("evaluations = %d, want 64", res.Evaluations)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cost function called %d times, want 1 (in-flight dedup)", got)
	}
	if res.History != nil {
		t.Fatal("history must stay empty without Record")
	}
}

// TestExploreParallelCachedErrorsKeepErr verifies the cache retains the
// (cost, error) pair: a cached failing configuration reports the original
// error, and the Cached flag marks every hit, in commit order.
func TestExploreParallelCachedErrorsKeepErr(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	boom := errors.New("kernel launch failed")
	cf := CostFunc(func(cfg *Config) (Cost, error) { return nil, boom })
	res, err := Explore(sp, &stuckTechnique{}, cf, Evaluations(6),
		ExploreOptions{CacheCosts: true, Record: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 6 {
		t.Fatalf("history length = %d", len(res.History))
	}
	for i, ev := range res.History {
		if !errors.Is(ev.Err, boom) {
			t.Fatalf("evaluation %d lost the original error: %v", i, ev.Err)
		}
		if ev.Cached != (i > 0) {
			t.Fatalf("evaluation %d: Cached = %v", i, ev.Cached)
		}
		if !ev.Cost.IsInf() {
			t.Fatalf("evaluation %d: failed config must cost +inf", i)
		}
	}
}

// cloneCountingCF counts how many clones were made and which instances
// were used, to verify the per-worker clone path.
type cloneCountingCF struct {
	clones *atomic.Int64
	used   *sync.Map // instance id -> true
	id     int64
}

func (c *cloneCountingCF) Cost(cfg *Config) (Cost, error) {
	c.used.Store(c.id, true)
	return SingleCost(float64(cfg.Int("WPT"))), nil
}

func (c *cloneCountingCF) Clone() (CostFunction, error) {
	id := c.clones.Add(1)
	return &cloneCountingCF{clones: c.clones, used: c.used, id: id}, nil
}

func TestExploreParallelClonesCostFunction(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	var clones atomic.Int64
	cf := &cloneCountingCF{clones: &clones, used: &sync.Map{}}
	if _, err := Explore(sp, &indexWalker{}, cf, Evaluations(40),
		ExploreOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if clones.Load() != 3 {
		t.Fatalf("clones = %d, want 3 (one per extra worker)", clones.Load())
	}
}

// TestBatcherSpeculativeProtocol checks the sequential-technique adapter:
// batches draw without intermediate feedback, costs are replayed in order,
// and exhaustion ends the batch stream.
func TestBatcherSpeculativeProtocol(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	w := &indexWalker{}
	b := AsBatch(w)
	b.Initialize(sp, 1)
	total := int(sp.Size())
	batch := b.GetNextBatch(total + 5)
	if len(batch) != total {
		t.Fatalf("batch length = %d, want %d (exhaustion truncates)", len(batch), total)
	}
	evals := make([]Evaluation, len(batch))
	for i, cfg := range batch {
		evals[i] = Evaluation{Index: uint64(i), Config: cfg, Cost: SingleCost(float64(i))}
	}
	b.ReportCosts(evals)
	if len(w.reports) != total {
		t.Fatalf("reports = %d, want %d", len(w.reports), total)
	}
	for i, c := range w.reports {
		if c.Primary() != float64(i) {
			t.Fatalf("report %d out of order: %v", i, c)
		}
	}
	if got := b.GetNextBatch(4); len(got) != 0 {
		t.Fatalf("exhausted technique must yield empty batches, got %d", len(got))
	}
	b.Finalize()
	if !w.finaled {
		t.Fatal("Finalize must reach the wrapped technique")
	}
}

// TestExploreParallelRejectsBadInputs mirrors the sequential validation.
func TestExploreParallelRejectsBadInputs(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	cf := quadCost(12)
	if _, err := Explore(nil, &indexWalker{}, cf, nil, ExploreOptions{Workers: 4}); err == nil {
		t.Error("nil space must error")
	}
	if _, err := Explore(sp, nil, cf, nil, ExploreOptions{Workers: 4}); err == nil {
		t.Error("nil technique must error")
	}
	if _, err := Explore(sp, &indexWalker{}, nil, nil, ExploreOptions{Workers: 4}); err == nil {
		t.Error("nil cost function must error")
	}
}

// TestExploreCachedErrorSequential pins the sequential cache fix: a cache
// hit on a failing configuration reports the original error and sets
// Cached.
func TestExploreCachedErrorSequential(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	boom := errors.New("nope")
	calls := 0
	cf := CostFunc(func(cfg *Config) (Cost, error) { calls++; return nil, boom })
	res, err := Explore(sp, &stuckTechnique{}, cf, Evaluations(3),
		ExploreOptions{CacheCosts: true, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cost function called %d times, want 1", calls)
	}
	for i, ev := range res.History {
		if !errors.Is(ev.Err, boom) {
			t.Fatalf("evaluation %d: cached error lost: %v", i, ev.Err)
		}
		if ev.Cached != (i > 0) {
			t.Fatalf("evaluation %d: Cached = %v", i, ev.Cached)
		}
	}
}
