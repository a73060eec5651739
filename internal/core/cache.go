package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// costCache is the concurrent cost-evaluation cache of the PoolEvaluator,
// used at every worker count (a one-worker pool pays an uncontended lock
// per lookup and may still see concurrent EvaluateBatch callers, as an
// atf-worker process does). It is sharded by key hash so workers evaluating
// different configurations do not contend on one lock, and it deduplicates
// in-flight work: when two workers ask for the same configuration at once,
// one evaluates and the other waits for the entry, so the cost function
// runs at most once per configuration.
type costCache struct {
	seed   maphash.Seed
	shards [costCacheShards]costCacheShard
}

const costCacheShards = 32

type costCacheShard struct {
	mu sync.Mutex
	m  map[string]*costCacheEntry
}

type costCacheEntry struct {
	ready atomic.Bool    // set once cost/err are
	done  sync.WaitGroup // released once cost/err are set
	cost  Cost
	err   error
}

func newCostCache() *costCache {
	c := &costCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*costCacheEntry)
	}
	return c
}

// getOrCompute returns the cached outcome for key, computing it via eval on
// the first request. Concurrent requests for the same key wait for the
// first evaluation instead of re-running it.
func (c *costCache) getOrCompute(key string, eval func() (Cost, error)) (Cost, error) {
	sh := &c.shards[maphash.String(c.seed, key)%costCacheShards]
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		if e.ready.Load() {
			mCostCacheHits.Inc()
		} else {
			// In-flight dedup: another worker is evaluating this exact
			// configuration right now; wait for its result.
			mCostCacheInflight.Inc()
			e.done.Wait()
		}
		return e.cost, e.err
	}
	mCostCacheMisses.Inc()
	e := &costCacheEntry{}
	e.done.Add(1)
	sh.m[key] = e
	sh.mu.Unlock()

	e.cost, e.err = eval()
	e.ready.Store(true)
	e.done.Done()
	return e.cost, e.err
}
