package core

import (
	"context"
	"fmt"
	"sync"
)

// Outcome is the result of evaluating one configuration: the cost vector
// and the cost function's error, if any. Failed evaluations carry
// InfCost() so they never win the comparison.
type Outcome struct {
	Cost Cost
	Err  error
}

// BatchEvaluator is the evaluate step of exploration as a
// transport-agnostic seam: Explore draws batches of configurations from
// the technique, hands each batch to the evaluator, and merges the
// outcomes strictly in batch order. The in-process PoolEvaluator is the
// default and reference implementation; the distributed fleet
// coordinator (internal/dist) implements the same interface over remote
// workers. Because merging happens on the engine
// side in batch-index order, any evaluator that returns the right
// outcomes — in any internal order, computed anywhere — yields a result
// bit-identical to a local run.
type BatchEvaluator interface {
	// EvaluateBatch evaluates the batch and returns one outcome per
	// configuration, in batch order. batchIndex is the 0-based sequence
	// number of the batch within the exploration run. A non-nil error
	// aborts exploration; evaluators that can degrade (the fleet
	// coordinator falls back to local evaluation) should do so instead
	// of erroring.
	EvaluateBatch(ctx context.Context, batchIndex uint64, batch []*Config) ([]Outcome, error)
}

// CloneableCostFunction is a CostFunction that can produce independent
// copies of itself for concurrent use. The PoolEvaluator gives each
// worker its own clone, so cost functions owning per-run state (a
// simulated device queue, uploaded buffers) never share it across
// workers. Cost functions that do not implement Clone are shared by all
// workers and must be safe for concurrent calls.
type CloneableCostFunction interface {
	CostFunction
	// Clone returns an independent, equivalently initialized instance.
	Clone() (CostFunction, error)
}

// PoolEvaluator is the in-process BatchEvaluator: one cost-function
// instance per worker (clones when the cost function supports them) and
// the sharded in-flight-deduplicating cost cache. A pool of n > 1 workers
// runs n worker goroutines; a one-worker pool starts none and evaluates
// on the calling goroutine. It is the evaluate step of Explore and is
// also what an atf-worker process runs behind its HTTP eval endpoint.
// EvaluateBatch is safe for concurrent calls.
type PoolEvaluator struct {
	cfs   []CostFunction
	cache *costCache
	tasks chan poolTask // nil for a one-worker pool

	// mu guards closed and serializes a one-worker pool's EvaluateBatch
	// calls, whose single cost function need not be safe for concurrent
	// use.
	mu     sync.Mutex
	closed bool
}

type poolTask struct {
	cfg *Config
	out *Outcome
	wg  *sync.WaitGroup
}

// NewPoolEvaluator builds a pool of `workers` cost evaluators over cf.
// With cacheCosts, outcomes are memoized by configuration key with
// in-flight deduplication, so a configuration's cost function runs at
// most once per pool. Close the pool to release its goroutines.
func NewPoolEvaluator(cf CostFunction, workers int, cacheCosts bool) (*PoolEvaluator, error) {
	if cf == nil {
		return nil, fmt.Errorf("core: no cost function")
	}
	if workers < 1 {
		workers = 1
	}
	// One cost function per worker: clones when the cost function
	// supports them, the shared instance otherwise.
	cfs := make([]CostFunction, workers)
	cfs[0] = cf
	for i := 1; i < workers; i++ {
		if cl, ok := cf.(CloneableCostFunction); ok {
			c, err := cl.Clone()
			if err != nil {
				return nil, fmt.Errorf("core: cloning cost function for worker %d: %w", i, err)
			}
			cfs[i] = c
		} else {
			cfs[i] = cf
		}
	}
	p := &PoolEvaluator{cfs: cfs}
	if cacheCosts {
		p.cache = newCostCache()
	}
	if workers == 1 {
		return p, nil
	}
	p.tasks = make(chan poolTask)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for t := range p.tasks {
				t.out.Cost, t.out.Err = p.evalOne(w, t.cfg)
				t.wg.Done()
			}
		}(w)
	}
	return p, nil
}

// Workers returns the pool size.
func (p *PoolEvaluator) Workers() int { return len(p.cfs) }

func (p *PoolEvaluator) evalOne(w int, cfg *Config) (Cost, error) {
	if p.cache == nil {
		cost, err := timedCost(p.cfs[w], cfg)
		if err != nil {
			cost = InfCost()
		}
		return cost, err
	}
	return p.cache.getOrCompute(cfg.Key(), func() (Cost, error) {
		cost, err := timedCost(p.cfs[w], cfg)
		if err != nil {
			cost = InfCost()
		}
		return cost, err
	})
}

// EvaluateBatch implements BatchEvaluator: the batch is fanned out to the
// pool and the outcomes are returned in batch order.
func (p *PoolEvaluator) EvaluateBatch(ctx context.Context, batchIndex uint64, batch []*Config) ([]Outcome, error) {
	if p.tasks == nil {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return p.evaluate(batch, nil), nil
}

// evaluate writes the batch's outcomes into out, resized to the batch,
// and returns it. Concurrent calls are safe only on a pool of more than
// one worker; Explore, the sole owner of the pool it builds, calls it
// directly to reuse its outcome buffers.
func (p *PoolEvaluator) evaluate(batch []*Config, out []Outcome) []Outcome {
	if cap(out) < len(batch) {
		out = make([]Outcome, len(batch))
	}
	out = out[:len(batch)]
	if p.tasks == nil {
		for i, cfg := range batch {
			out[i].Cost, out[i].Err = p.evalOne(0, cfg)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(batch))
	for i, cfg := range batch {
		p.tasks <- poolTask{cfg: cfg, out: &out[i], wg: &wg}
	}
	wg.Wait()
	return out
}

// Close stops the pool's worker goroutines. The pool must be idle; Close
// is idempotent.
func (p *PoolEvaluator) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed && p.tasks != nil {
		close(p.tasks)
	}
	p.closed = true
	return nil
}
