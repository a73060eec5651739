package oclc

import (
	"container/list"
	"hash/maphash"
	"strconv"
	"sync"
	"time"

	"atf/internal/obs"
)

// Process-wide compile-cache metrics (DESIGN.md §3c). The cache's own
// hits/misses fields stay authoritative for CompileCacheStats (they reset
// with ResetCompileCache); these export the same events cumulatively.
var (
	mCompileHits = obs.NewCounter("atf_oclc_compile_cache_hits_total",
		"Compile-cache lookups served from a completed program")
	mCompileMisses = obs.NewCounter("atf_oclc_compile_cache_misses_total",
		"Compile-cache lookups that compiled the program")
	mCompileInflight = obs.NewCounter("atf_oclc_compile_cache_inflight_waits_total",
		"Compile-cache lookups that blocked on another worker's in-flight compile")
	mCompileEvictions = obs.NewCounter("atf_oclc_compile_cache_evictions_total",
		"Compiled programs evicted to keep the cache under its byte budget")
	mCompileBytes = obs.NewGauge("atf_oclc_compile_cache_bytes",
		"Estimated bytes of compiled programs resident in the cache")
	mCompileEntries = obs.NewGauge("atf_oclc_compile_cache_entries",
		"Compiled programs resident in the cache")
	mCompileSeconds = obs.NewHistogram("atf_oclc_compile_seconds",
		"Wall-clock time of one cold kernel compile (preprocess+lex+parse)", nil)
)

// programCache memoizes compiled programs by (source, define set). ATF's
// OpenCL cost function rebuilds the kernel for every configuration; search
// techniques revisit configurations (annealing walks, cache-less random
// search, post-tuning Verify runs), and — because the cache is process-wide
// — concurrent atfd sessions tuning the same kernel share each other's
// compiles: the daemon scope IS the cache scope, so a second session
// submitting an identical spec starts warm. The cache keys on the exact
// -D option string, so each distinct configuration is compiled once and
// only re-interpreted afterwards. Compiled Programs are immutable after
// parsing (Launch allocates all mutable state per call), so one cached
// instance is safely shared by concurrent exploration workers and sessions.
//
// Retention is a byte-budgeted LRU over an estimated per-program footprint:
// a lookup (hit or miss) moves the entry to the front, and inserts evict
// from the back until the estimate fits the budget again. In-flight
// compiles are never evicted (their footprint is unknown until they
// finish), and eviction never blocks waiters: an evicted entry still
// completes for whoever already holds it.
//
// In-flight deduplication mirrors core's cost cache: concurrent requests
// for the same key block on the first compilation instead of repeating it.
type programCache struct {
	mu      sync.Mutex
	entries map[string]*progCacheEntry
	lru     *list.List // *progCacheEntry; front = most recently used
	budget  int64
	bytes   int64

	hits      uint64
	misses    uint64
	evictions uint64
}

type progCacheEntry struct {
	key   string
	elem  *list.Element
	bytes int64 // 0 while the compile is in flight
	done  chan struct{}
	prog  *Program
	err   error
	// source and defines reproduce the compile for the persistent
	// warm-start manifest (manifest.go): cache keys hash the source with a
	// per-process seed, so persisting keys would be useless across
	// restarts — the manifest persists the compile inputs instead.
	source  string
	defines map[string]string
}

// DefaultCompileCacheBudget is the default byte budget of the shared
// compile cache: at a few kB per compiled program it retains every
// configuration of thousands of concurrent realistic tuning runs.
const DefaultCompileCacheBudget = 64 << 20

var sharedProgCache = newProgramCache(DefaultCompileCacheBudget)

func newProgramCache(budget int64) *programCache {
	return &programCache{
		entries: make(map[string]*progCacheEntry),
		lru:     list.New(),
		budget:  budget,
	}
}

var progKeySeed = maphash.MakeSeed()

// progCacheKey folds source identity and the canonical define string. The
// full source is hashed rather than stored: keys would otherwise retain
// multi-kB kernel sources per configuration.
func progCacheKey(source string, defines map[string]string) string {
	h := maphash.String(progKeySeed, source)
	return strconv.FormatUint(h, 16) + "|" + BuildDefines(defines)
}

// progFootprint estimates the resident bytes of one cache entry. The AST
// is not walked — the estimate only has to be proportional, and compiled
// programs retain their preprocessed source plus an AST of roughly the
// same order, so a small multiple of the source length plus a fixed
// overhead tracks reality closely enough for budget enforcement.
func progFootprint(source, key string) int64 {
	return int64(len(source))*3 + int64(len(key)) + 4096
}

// CompileCached is Compile backed by the shared program cache. The returned
// Program must be treated as immutable (Launch already is); callers needing
// a private mutable Program should use Compile.
func CompileCached(source string, defines map[string]string) (*Program, error) {
	return sharedProgCache.compile(source, defines)
}

// SetCompileCacheBudget bounds the estimated bytes the shared compile
// cache retains (atfd -compile-cache-bytes). 0 disables caching entirely
// — every CompileCached call compiles cold — and a negative budget lifts
// the bound. Shrinking the budget evicts immediately.
func SetCompileCacheBudget(bytes int64) {
	c := sharedProgCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = bytes
	c.evictOverBudgetLocked()
}

// CompileCacheBudget reports the shared cache's byte budget.
func CompileCacheBudget() int64 {
	sharedProgCache.mu.Lock()
	defer sharedProgCache.mu.Unlock()
	return sharedProgCache.budget
}

// CompileCacheStats reports the shared cache's hit/miss/eviction counters
// and its estimated resident bytes (tests, benchmarks, the load harness).
func CompileCacheStats() (hits, misses uint64) {
	sharedProgCache.mu.Lock()
	defer sharedProgCache.mu.Unlock()
	return sharedProgCache.hits, sharedProgCache.misses
}

// CompileCacheUsage reports the shared cache's resident entry count,
// estimated bytes, and cumulative evictions.
func CompileCacheUsage() (entries int, bytes int64, evictions uint64) {
	sharedProgCache.mu.Lock()
	defer sharedProgCache.mu.Unlock()
	return len(sharedProgCache.entries), sharedProgCache.bytes, sharedProgCache.evictions
}

// ResetCompileCache empties the shared cache and its counters (benchmarks
// measuring cold compiles). The budget is preserved.
func ResetCompileCache() {
	c := sharedProgCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*progCacheEntry)
	c.lru.Init()
	c.bytes = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
	mCompileBytes.Set(0)
	mCompileEntries.Set(0)
}

func (c *programCache) compile(source string, defines map[string]string) (*Program, error) {
	key := progCacheKey(source, defines)
	c.mu.Lock()
	if c.budget == 0 {
		// Caching disabled: compile cold, still counted as a miss so hit
		// rates read as 0% rather than absent.
		c.misses++
		c.mu.Unlock()
		mCompileMisses.Inc()
		start := time.Now()
		prog, err := Compile(source, defines)
		mCompileSeconds.Observe(time.Since(start).Seconds())
		return prog, err
	}
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.done:
			mCompileHits.Inc()
		default:
			mCompileInflight.Inc()
			<-e.done
		}
		return e.prog, e.err
	}
	c.misses++
	defCopy := make(map[string]string, len(defines))
	for k, v := range defines {
		defCopy[k] = v
	}
	e := &progCacheEntry{key: key, done: make(chan struct{}), source: source, defines: defCopy}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	mCompileMisses.Inc()

	start := time.Now()
	e.prog, e.err = Compile(source, defines)
	mCompileSeconds.Observe(time.Since(start).Seconds())

	// Account the finished entry and shed LRU victims before waking the
	// waiters. Failed compiles keep a minimal footprint: the error is worth
	// caching (repeat submissions of a broken kernel stay cheap) but holds
	// no program.
	c.mu.Lock()
	if c.entries[key] == e { // not evicted or reset mid-compile
		e.bytes = progFootprint(source, key)
		if e.err != nil {
			e.bytes = int64(len(key)) + 256
		}
		c.bytes += e.bytes
		c.evictOverBudgetLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return e.prog, e.err
}

// evictOverBudgetLocked drops least-recently-used completed entries until
// the estimated bytes fit the budget. In-flight entries (bytes == 0) are
// skipped: their size is unknown and their waiters hold direct pointers.
func (c *programCache) evictOverBudgetLocked() {
	if c.budget > 0 {
		for elem := c.lru.Back(); elem != nil && c.bytes > c.budget; {
			prev := elem.Prev()
			e := elem.Value.(*progCacheEntry)
			if e.bytes > 0 {
				c.lru.Remove(elem)
				delete(c.entries, e.key)
				c.bytes -= e.bytes
				c.evictions++
				mCompileEvictions.Inc()
			}
			elem = prev
		}
	}
	mCompileBytes.Set(c.bytes)
	mCompileEntries.Set(int64(len(c.entries)))
}
