package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"

	"atf/internal/obs"
)

// BatchMark identifies one dispatched batch: its 0-based index, the
// evaluation index of its first configuration, and its size. Under
// pipelined dispatch StartEval is the predicted first index — exact
// unless an abort condition cut the preceding batch short, in which case
// the speculative batch is discarded anyway.
type BatchMark struct {
	Index     uint64
	StartEval uint64
	Size      int
}

// pendingBatch is one batch handed to the evaluator. The engine keeps two
// and alternates between them, so their outcome buffers are reused: one
// batch can be at the evaluator while the other merges. done receives
// once when a pipelined batch's outcomes (or error) are in.
type pendingBatch struct {
	index    uint64
	batch    []*Config
	outcomes []Outcome
	err      error
	done     chan struct{}
}

// Explore runs the paper's exploration loop (Section II Step 3): it asks
// the technique for configurations, scores them with the cost function, and
// stops when the abort condition fires. A nil abort defaults to
// evaluations(S) with S the search-space size, exactly as in ATF.
//
// The loop works in batches: it draws a batch from the technique (a
// plain Technique through the Batcher adapter), hands it to the evaluator
// — a pool of ExploreOptions.Workers cost evaluators or the caller's
// Evaluator — and merges the outcomes strictly in batch-index order, the
// same discipline GenerateGroup uses for its root chunks. Result.Best,
// Improvements, History and the evaluation indices are therefore
// identical regardless of worker count for any technique whose proposals
// do not depend on intermediate costs (exhaustive, seeded random, and
// every BatchTechnique that treats a batch as one step). Stateful
// sequential techniques adapted via Batcher receive speculative batches
// when batches hold more than one configuration; their walks remain valid
// but differ from their one-at-a-time runs.
//
// Unpipelined, the abort condition is checked before each batch is drawn
// and the batch's first evaluation commits under that check, so at one
// worker nothing past the budget is drawn or evaluated. Every further
// evaluation — pipelined, every evaluation — is checked before it is
// committed: when the condition fires mid-batch, the remaining
// already-evaluated configurations of that batch are discarded, never
// counted, recorded or reported. A canceled
// ExploreOptions.Context stops exploration the same way — no new batch is
// dispatched, the current batch stops committing at the cancellation
// point, and the partial result is returned — so a daemon shutdown aborts
// in-flight work at the next commit boundary instead of draining the
// whole search.
func Explore(sp *Space, tech Technique, cf CostFunction, abort AbortCondition, opts ExploreOptions) (*Result, error) {
	if sp == nil || sp.Size() == 0 {
		return nil, fmt.Errorf("core: cannot explore an empty search space")
	}
	if tech == nil {
		return nil, fmt.Errorf("core: no search technique")
	}
	if cf == nil {
		return nil, fmt.Errorf("core: no cost function")
	}
	if abort == nil {
		abort = Evaluations(sp.Size())
	}
	order := opts.Order
	if order == nil {
		order = LexLess
	}
	now := opts.Now
	if now == nil {
		now = monoNow
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x5eed_a7f1
	}
	workers := opts.Workers
	switch {
	case workers < 0:
		workers = runtime.NumCPU()
	case workers == 0:
		workers = 1
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = workers
	}

	// The evaluate step: the caller's evaluator (the distributed fleet
	// coordinator) or the built-in in-process pool, which writes into the
	// engine's reused outcome buffers.
	evaluator := opts.Evaluator
	var pool *PoolEvaluator
	if evaluator == nil {
		var err error
		if pool, err = NewPoolEvaluator(cf, workers, opts.CacheCosts); err != nil {
			return nil, err
		}
		defer pool.Close()
		evaluator = pool
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	bt := AsBatch(tech)
	bt.Initialize(sp, seed)
	defer bt.Finalize()

	// committed tracks the keys of committed evaluations so the Cached flag
	// depends only on commit order, not on which worker won a cache race.
	var committed map[string]bool
	if opts.CacheCosts {
		committed = make(map[string]bool)
	}

	mWorkers.Set(int64(workers))
	span := obs.StartSpan("explore", slog.Int("workers", workers))

	// Pipelining only engages when the technique's proposals ignore costs
	// and something can run beside the merge; anything else keeps the
	// strict draw→evaluate→report cadence, evaluating each batch on this
	// goroutine.
	pipeline := opts.Pipeline && costOblivious(bt) && (opts.Evaluator != nil || workers > 1)

	// inflight is the batch currently at the evaluator. Under pipelining
	// every exit path must drain it before the deferred pool.Close tears
	// the workers down, which is what the deferred receive guarantees
	// (registered after the Close defer, so it runs first).
	var inflight *pendingBatch
	defer func() {
		if pipeline && inflight != nil {
			<-inflight.done
		}
	}()

	evaluate := func(fb *pendingBatch) {
		if pool != nil {
			fb.outcomes = pool.evaluate(fb.batch, fb.outcomes)
			return
		}
		fb.outcomes, fb.err = evaluator.EvaluateBatch(ctx, fb.index, fb.batch)
	}

	var slots [2]pendingBatch
	var batchIndex, nextStart uint64
	// draw pulls the next batch from the technique and hands it to the
	// evaluator: synchronously, or — pipelined — on a goroutine, without
	// waiting. The mark's StartEval is the running total of drawn
	// configurations — identical to the committed count whenever the
	// unpipelined engine would have drawn, and the prediction for a
	// speculative batch whose predecessor has not finished merging yet.
	draw := func() *pendingBatch {
		batch := bt.GetNextBatch(batchSize)
		if len(batch) == 0 {
			return nil // technique exhausted
		}
		fb := &slots[batchIndex%2]
		fb.index, fb.batch, fb.err = batchIndex, batch, nil
		batchIndex++
		mBatches.Inc()
		if opts.OnBatch != nil {
			opts.OnBatch(BatchMark{Index: fb.index, StartEval: nextStart, Size: len(batch)})
		}
		nextStart += uint64(len(batch))
		if !pipeline {
			evaluate(fb)
			return fb
		}
		if fb.done == nil {
			fb.done = make(chan struct{}, 1)
		}
		go func() {
			evaluate(fb)
			fb.done <- struct{}{}
		}()
		return fb
	}

	st := &State{Start: now(), SpaceSize: sp.Size()}
	st.Now = st.Start
	res := &Result{}
	stop := func() bool { return opts.canceled() || abort.Abort(st) }
	var evals []Evaluation

	if !stop() {
		inflight = draw()
	}
	for inflight != nil {
		cur := inflight
		inflight = nil
		if pipeline {
			<-cur.done
		}
		if cur.err != nil {
			if opts.canceled() {
				break // cancellation mid-batch: return the partial result
			}
			return nil, fmt.Errorf("core: evaluating batch %d: %w", cur.index, cur.err)
		}
		if len(cur.outcomes) != len(cur.batch) {
			return nil, fmt.Errorf("core: evaluator returned %d outcomes for a batch of %d", len(cur.outcomes), len(cur.batch))
		}
		if pipeline && !opts.canceled() {
			// Speculative overlap: the next batch reaches the evaluator
			// while this one merges.
			inflight = draw()
		}

		// Merge strictly in batch order. A batch drawn right after an
		// abort check commits its first evaluation under that check;
		// every other evaluation is checked on its own. The clock reads
		// double as evaluation timestamps and merge timing.
		mergeStart := now()
		st.Now = mergeStart
		aborted := false
		evals = evals[:0]
		for i, cfg := range cur.batch {
			if i > 0 {
				st.Now = now()
			}
			if (i > 0 || pipeline) && stop() {
				aborted = true
				break
			}
			cost, err := cur.outcomes[i].Cost, cur.outcomes[i].Err
			if err != nil && !cost.IsInf() {
				cost = InfCost() // failed evaluations never win, whatever the evaluator sent
			}
			var cached bool
			if committed != nil {
				key := cfg.Key()
				cached = committed[key]
				committed[key] = true
			}

			commitMetrics(cached, err)
			st.Evaluations++
			if !cost.IsInf() {
				st.Valid++
			}
			ev := Evaluation{
				Index:  st.Evaluations - 1,
				Config: cfg,
				Cost:   cost,
				Err:    err,
				At:     st.Now.Sub(st.Start),
				Cached: cached,
			}
			evals = append(evals, ev)
			if opts.Record {
				res.History = append(res.History, ev)
			}
			if opts.OnEvaluation != nil {
				opts.OnEvaluation(ev)
			}
			if !cost.IsInf() && (st.Best == nil || order(cost, st.Best)) {
				st.Best = cost.Clone()
				st.BestConfig = cfg.Clone()
				st.improvements = append(st.improvements, improvement{at: st.Now, eval: st.Evaluations, cost: cost.Primary()})
				res.Improvements = append(res.Improvements, ev)
			}
		}
		bt.ReportCosts(evals)
		st.Now = now()
		mBatchMergeSeconds.Observe(st.Now.Sub(mergeStart).Seconds())
		if aborted {
			break
		}
		if !pipeline && !stop() {
			inflight = draw()
		}
	}

	res.Best = st.BestConfig
	res.BestCost = st.Best
	res.Evaluations = st.Evaluations
	res.Valid = st.Valid
	res.Elapsed = now().Sub(st.Start)
	span.End(slog.Uint64("evaluations", res.Evaluations), slog.Uint64("valid", res.Valid))
	return res, nil
}
