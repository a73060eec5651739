package core

import "atf/internal/obs"

// Process-wide instrumentation of the core hot paths, recorded into the
// obs.Default() registry (exported by atfd's /metrics and the CLI -stats
// summaries). Metric names and semantics are documented in DESIGN.md §3c;
// keep the two in sync.
var (
	// Search-space generation (GenerateSpace / GenerateGroup).
	mSpacegenRuns = obs.NewCounter("atf_spacegen_total",
		"Search-space generations completed")
	mSpacegenSeconds = obs.NewHistogram("atf_spacegen_seconds",
		"Wall-clock time of one search-space generation (tree build)", nil)
	mSpacegenChecks = obs.NewCounter("atf_spacegen_constraint_checks_total",
		"Constraint evaluations performed during space generation")
	mSpacegenConfigs = obs.NewGauge("atf_spacegen_last_valid_configs",
		"Valid configurations in the most recently generated space")
	mSpacegenNodes = obs.NewGauge("atf_spacegen_last_tree_nodes",
		"Logical trie nodes in the most recently generated space")
	mSpacegenUniqueNodes = obs.NewGauge("atf_spacegen_last_unique_nodes",
		"Unique (shared) trie arena nodes in the most recently generated space")
	mSpacegenArenaBytes = obs.NewGauge("atf_spacegen_last_arena_bytes",
		"Bytes held by the trie arenas of the most recently generated space")
	mSpacegenMemoHits = obs.NewCounter("atf_spacegen_memo_hits_total",
		"Subtree-memoization hits during space generation")
	mSpacegenMemoMisses = obs.NewCounter("atf_spacegen_memo_misses_total",
		"Subtree-memoization misses (subtrees computed) during space generation")

	// Lazy (streaming) space construction (lazy.go).
	mSpaceLazyExpansions = obs.NewCounter("atf_space_lazy_expansions_total",
		"Sibling blocks expanded on first touch by lazy search spaces")
	mSpaceLazyEvictions = obs.NewCounter("atf_space_lazy_evictions_total",
		"Expanded slabs evicted by the lazy-space arena byte budget")
	mSpaceLazyResident = obs.NewGauge("atf_space_lazy_resident_bytes",
		"Resident expanded-slab bytes of the most recently touched lazy space")

	// Streaming space sweeps (iter.go).
	mIterChunks = obs.NewCounter("atf_space_iter_chunks_total",
		"Configuration chunks handed out by streaming space sweeps")
	mIterConfigs = obs.NewCounter("atf_space_iter_configs_total",
		"Configurations emitted by streaming space sweeps")
	mIterDescents = obs.NewCounter("atf_space_iter_descents_total",
		"Full root-to-leaf cursor descents performed by streaming sweeps (seeks and group resets)")
	mIterPrefetched = obs.NewCounter("atf_space_iter_prefetched_chunks_total",
		"Sweep chunks served from an overlapped prefetch instead of a synchronous walk")

	// Census persistence (census.go): restores of a persisted lazy-space
	// census vs. counting passes actually run.
	mCensusRuns = obs.NewCounter("atf_space_census_runs_total",
		"Lazy-space counting passes executed (cold census runs)")
	mCensusRestored = obs.NewCounter("atf_space_census_restored_total",
		"Lazy-space group censuses restored from a persisted snapshot")

	// Exploration (Explore).
	mEvaluations = obs.NewCounter("atf_evaluations_total",
		"Cost evaluations committed to exploration results")
	mEvalCached = obs.NewCounter("atf_evaluations_cached_total",
		"Committed evaluations served from the cost cache")
	mEvalFailed = obs.NewCounter("atf_evaluations_failed_total",
		"Committed evaluations whose cost function returned an error")
	mEvalSeconds = obs.NewHistogram("atf_evaluation_cost_seconds",
		"Wall-clock latency of one cost-function call (cache misses only)", nil)
	mBatches = obs.NewCounter("atf_explore_batches_total",
		"Configuration batches dispatched by exploration")
	mBatchMergeSeconds = obs.NewHistogram("atf_explore_batch_merge_seconds",
		"Latency of merging one evaluated batch in deterministic order", nil)
	mWorkersBusy = obs.NewGauge("atf_explore_workers_busy",
		"Exploration workers currently inside a cost-function call")
	mWorkers = obs.NewGauge("atf_explore_workers",
		"Workers of the most recently started parallel exploration")

	// The sharded cost cache of the PoolEvaluator.
	mCostCacheHits = obs.NewCounter("atf_cost_cache_hits_total",
		"Cost-cache lookups served from a completed entry")
	mCostCacheMisses = obs.NewCounter("atf_cost_cache_misses_total",
		"Cost-cache lookups that evaluated the cost function")
	mCostCacheInflight = obs.NewCounter("atf_cost_cache_inflight_waits_total",
		"Cost-cache lookups that blocked on another worker's in-flight evaluation")
)
