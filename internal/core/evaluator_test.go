package core

import (
	"context"
	"sync"
	"testing"
)

// reversePoolEvaluator evaluates batches through a PoolEvaluator but
// hands them over in reverse order, modeling an evaluator whose internal
// completion order has nothing to do with batch order.
type reversePoolEvaluator struct {
	pool    *PoolEvaluator
	batches []BatchMark
}

func (r *reversePoolEvaluator) EvaluateBatch(ctx context.Context, batchIndex uint64, batch []*Config) ([]Outcome, error) {
	r.batches = append(r.batches, BatchMark{Index: batchIndex, Size: len(batch)})
	rev := make([]*Config, len(batch))
	for i, cfg := range batch {
		rev[len(batch)-1-i] = cfg
	}
	outs, err := r.pool.EvaluateBatch(ctx, batchIndex, rev)
	if err != nil {
		return nil, err
	}
	back := make([]Outcome, len(outs))
	for i := range outs {
		back[len(outs)-1-i] = outs[i]
	}
	return back, nil
}

// TestCustomEvaluatorDeterministic proves the BatchEvaluator seam: a
// custom evaluator that computes outcomes in a different internal order
// still yields results bit-identical to the sequential reference,
// because merging happens engine-side in batch order.
func TestCustomEvaluatorDeterministic(t *testing.T) {
	sp := mustSpace(t, saxpyParams(96))
	cf := ScalarCostFunc(func(cfg *Config) float64 {
		return float64((cfg.Int("WPT")-7)*(cfg.Int("WPT")-7)) + float64(cfg.Int("LS"))
	})

	ref, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{Record: true, CacheCosts: true})
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewPoolEvaluator(cf, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ev := &reversePoolEvaluator{pool: pool}
	var marks []BatchMark
	got, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{
		Record:     true,
		CacheCosts: true,
		Workers:    4,
		Evaluator:  ev,
		OnBatch:    func(m BatchMark) { marks = append(marks, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got, "custom evaluator")

	// The batch marks partition the evaluation sequence exactly.
	var next uint64
	for i, m := range marks {
		if m.Index != uint64(i) {
			t.Fatalf("mark %d has index %d", i, m.Index)
		}
		if m.StartEval != next {
			t.Fatalf("mark %d starts at %d, want %d", i, m.StartEval, next)
		}
		next += uint64(m.Size)
	}
	if next != got.Evaluations {
		t.Fatalf("marks cover %d evaluations, result has %d", next, got.Evaluations)
	}
	if len(ev.batches) != len(marks) {
		t.Fatalf("evaluator saw %d batches, hook saw %d", len(ev.batches), len(marks))
	}
}

// TestPoolEvaluatorConcurrentCalls exercises one pool from concurrent
// EvaluateBatch callers — the shape of an atf-worker serving overlapping
// partitions — under the race detector.
func TestPoolEvaluatorConcurrentCalls(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	cf := ScalarCostFunc(func(cfg *Config) float64 { return float64(cfg.Int("WPT")) })
	pool, err := NewPoolEvaluator(cf, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	batch := make([]*Config, sp.Size())
	for i := range batch {
		batch[i] = sp.At(uint64(i))
	}
	done := make(chan []Outcome, 4)
	for g := 0; g < 4; g++ {
		go func() {
			outs, err := pool.EvaluateBatch(context.Background(), 0, batch)
			if err != nil {
				t.Error(err)
			}
			done <- outs
		}()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		outs := <-done
		for i := range outs {
			if outs[i].Cost.String() != first[i].Cost.String() {
				t.Fatalf("outcome %d differs across concurrent calls", i)
			}
		}
	}
}

// TestPoolEvaluatorOneWorkerSerializesCalls: a one-worker pool evaluates
// on its callers' goroutines, so concurrent EvaluateBatch calls must not
// run its single cost function concurrently. The cost function keeps an
// unsynchronized counter, which the race detector flags if they do.
func TestPoolEvaluatorOneWorkerSerializesCalls(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	calls := 0
	cf := ScalarCostFunc(func(cfg *Config) float64 {
		calls++
		return float64(cfg.Int("WPT"))
	})
	pool, err := NewPoolEvaluator(cf, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	batch := make([]*Config, sp.Size())
	for i := range batch {
		batch[i] = sp.At(uint64(i))
	}
	const callers = 4
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func() {
			defer wg.Done()
			outs, err := pool.EvaluateBatch(context.Background(), 0, batch)
			if err != nil {
				t.Error(err)
				return
			}
			for i, o := range outs {
				if want := float64(batch[i].Int("WPT")); o.Cost.Primary() != want {
					t.Errorf("outcome %d = %v, want %v", i, o.Cost, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := callers * len(batch); calls != want {
		t.Fatalf("cost function ran %d times, want %d", calls, want)
	}
}
