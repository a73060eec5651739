package core

import (
	"context"
	"time"
)

// Technique is the paper's generic search-technique interface (Section IV):
//
//	class search_technique {
//	    void          initialize(search_space sp);
//	    void          finalize();
//	    configuration get_next_config();
//	    void          report_cost(size_t cost);
//	}
//
// Exploration repeatedly takes a configuration via GetNextConfig, evaluates
// it with the cost function, and reports the cost back via ReportCost until
// the abort condition fires. New techniques are added by implementing this
// interface.
type Technique interface {
	// Initialize is called once before exploration with the generated
	// search space and a seed for deterministic randomness.
	Initialize(sp *Space, seed int64)
	// Finalize is called once after exploration.
	Finalize()
	// GetNextConfig returns the next configuration to evaluate.
	GetNextConfig() *Config
	// ReportCost reports the cost of the most recently returned
	// configuration back to the technique.
	ReportCost(cost Cost)
}

// Evaluation records one tested configuration.
type Evaluation struct {
	Index  uint64 // evaluation sequence number (0-based)
	Config *Config
	Cost   Cost
	Err    error
	At     time.Duration // elapsed since exploration start
	// Cached marks evaluations served from the cost cache: the same
	// configuration was already evaluated earlier in this run (only with
	// ExploreOptions.CacheCosts). Cached evaluations carry the original
	// cost and error of the first miss.
	Cached bool
}

// Result is the outcome of one tuning run.
type Result struct {
	Best        *Config
	BestCost    Cost
	Evaluations uint64
	Valid       uint64
	Elapsed     time.Duration
	// History holds every evaluation in order when ExploreOptions.Record
	// is set; otherwise only improvements are retained.
	History []Evaluation
	// Improvements lists the evaluations at which the best cost dropped.
	Improvements []Evaluation
}

// ExploreOptions tunes the exploration loop.
type ExploreOptions struct {
	// Seed makes the run deterministic; 0 selects a fixed default seed
	// (determinism by default keeps experiments reproducible).
	Seed int64
	// Record retains the full evaluation history in the result.
	Record bool
	// CacheCosts memoizes cost evaluations by configuration, so search
	// techniques revisiting configurations do not pay the cost function
	// twice. Cached hits still count as evaluations, as in ATF.
	CacheCosts bool
	// Order overrides the lexicographic cost order.
	Order CostOrder
	// Now substitutes the wall clock (tests inject virtual time).
	Now func() time.Time
	// OnEvaluation, when set, observes every evaluation.
	OnEvaluation func(ev Evaluation)
	// Context, when set, cancels exploration early: cancellation acts like
	// an abort condition firing between evaluations, so the partial result
	// accumulated so far is still returned (with a nil error). Long-lived
	// callers — the atfd session manager shutting down — check their own
	// context to distinguish cancellation from completion.
	Context context.Context
	// Workers is the number of concurrent cost evaluators: 0 and 1 run
	// one evaluator on the exploring goroutine, n > 1 a pool of n, and a
	// negative value runtime.NumCPU(). With a custom Evaluator, Workers
	// only sets the default BatchSize — the evaluator owns its own
	// concurrency.
	Workers int
	// BatchSize is the number of configurations requested from the
	// technique per round; 0 means Workers. Larger batches amortize
	// synchronization, smaller ones shorten the speculation window of
	// adapted stateful techniques (see Batcher). At one worker batches
	// hold one configuration, so adaptive techniques take exactly the
	// walk of the paper's one-at-a-time loop.
	BatchSize int
	// Evaluator substitutes the evaluate step: instead of the built-in
	// in-process pool (PoolEvaluator over cf), batches are handed to this
	// evaluator — the seam the distributed fleet coordinator plugs into.
	// The merge discipline is unchanged, so results stay bit-identical to
	// a local run for any evaluator that returns correct outcomes. The
	// caller owns the evaluator's lifecycle.
	Evaluator BatchEvaluator
	// OnBatch, when set, observes every batch before it is dispatched —
	// the hook the atfd journal uses to write batch-boundary records so a
	// coordinator crash mid-batch replays cleanly.
	OnBatch func(mark BatchMark)
	// Pipeline overlaps dispatch with merging: batch k+1 is drawn from the
	// technique and handed to the evaluator while batch k's outcomes are
	// still being merged and reported, so a remote fleet's workers never
	// idle during the coordinator's commit pass. Pipelining only engages
	// for techniques that declare themselves CostOblivious (exhaustive,
	// seeded random — directly or through the Batcher adapter), whose
	// proposal walk ignores reported costs, so the early draw leaves
	// results bit-identical to the unpipelined run; and only when there
	// is a second party to overlap with — a custom Evaluator or a pool of
	// more than one worker. Otherwise the option is ignored and batches
	// stay strictly sequential. When an abort condition fires mid-merge
	// the speculative batch is drained and discarded — evaluated but
	// never committed, recorded, or reported.
	Pipeline bool
}

// canceled reports whether the options' context (if any) is done.
func (o *ExploreOptions) canceled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// clockBase anchors monoNow.
var clockBase = time.Now()

// monoNow is the exploration clock: time.Now derived from the monotonic
// clock alone, as clockBase plus the monotonic time elapsed since. It
// reads one clock instead of time.Now's two (wall and monotonic), which
// matters when exploration reads it several times per evaluation, and it
// never steps with wall-clock adjustments.
func monoNow() time.Time { return clockBase.Add(time.Since(clockBase)) }

// timedCost runs one cost-function call inside the worker-occupancy gauge
// and the evaluation-latency histogram. Shared by the pool's workers and
// the cost cache so every *actual* cost-function execution —
// never a cache hit — lands in atf_evaluation_cost_seconds exactly once.
func timedCost(cf CostFunction, cfg *Config) (Cost, error) {
	mWorkersBusy.Inc()
	start := monoNow()
	cost, err := cf.Cost(cfg)
	mEvalSeconds.Observe(time.Since(start).Seconds())
	mWorkersBusy.Dec()
	return cost, err
}

// commitMetrics updates the process-wide evaluation counters for one
// committed evaluation.
func commitMetrics(cached bool, err error) {
	mEvaluations.Inc()
	if cached {
		mEvalCached.Inc()
	}
	if err != nil {
		mEvalFailed.Inc()
	}
}
