// Package obs is the tuner's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms — all
// atomic and race-clean) plus a structured event/trace API built on
// log/slog (trace.go).
//
// Metrics are registered once, by name, on a Registry; the package-level
// constructors (NewCounter, NewGauge, NewHistogram) register on the
// shared Default registry, which is what the instrumented hot paths —
// search-space generation, exploration (core.Explore), the cost cache, the
// oclc compile cache and the simulated device queue — record into, and
// what atfd's /metrics endpoint and the CLI -stats summaries export.
// Registration is get-or-create: re-registering a name returns the
// existing collector, so package-level metric variables and tests never
// collide.
//
// Exposition formats: WritePrometheus renders the Prometheus text
// format, Snapshot returns a JSON-marshalable point-in-time view (the
// atfd per-session /stats body), and WriteSummary prints the aligned
// table behind atf-tune/atf-experiments -stats.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (events, hits, misses).
// All methods are safe for concurrent use.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (workers busy, cache size)
// or be set to an absolute value (last space size). Safe for concurrent
// use.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-boundary cumulative histogram in the Prometheus
// style: Observe(v) increments the first bucket whose upper bound is
// >= v (an implicit +Inf bucket catches the rest) plus the running count
// and sum. Bounds are fixed at construction; Observe is lock-free.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf implicit
	buckets    []atomic.Uint64
	count      atomic.Uint64
	sum        atomicFloat
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Bucket search is linear: bucket lists are short (≤ ~16) and the
	// common observations land in the first few buckets, so this beats
	// binary search in practice and keeps the hot path branch-cheap.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat is a float64 accumulated with a CAS loop (histogram sums).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets are the default upper bounds, in seconds, for latency
// histograms: 1µs–60s in roughly half-decade steps. The low end resolves
// in-process work (bucket merges, cached compiles: ~µs), the middle the
// simulated kernel times (~µs–ms), and the tail real cost functions that
// run compiled programs for seconds. Documented in DESIGN.md §3c; change
// there too if these move.
var DurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 30, 60,
}

// Registry holds named collectors. The zero value is not usable; create
// with NewRegistry. Collector registration is get-or-create by name, so
// concurrent or repeated registration of the same metric is safe and
// returns the same collector.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry (per-session metrics in atfd).
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the shared process-wide registry that the built-in
// instrumentation records into.
func Default() *Registry { return defaultRegistry }

// NewCounter registers (or returns the existing) counter on the registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counts[name] = c
	return c
}

// NewGauge registers (or returns the existing) gauge on the registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// NewHistogram registers (or returns the existing) histogram with the
// given ascending upper bucket bounds (nil selects DurationBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// CounterSnapshot is a counter's point-in-time state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is a gauge's point-in-time state.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is a histogram's point-in-time state. Counts are
// per-bucket (non-cumulative); Bounds[i] is Counts[i]'s upper bound and
// Counts[len(Bounds)] is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Name   string    `json:"name"`
	Help   string    `json:"help,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket containing it — the same estimate Prometheus'
// histogram_quantile computes. Values in the +Inf bucket clamp to the
// last finite bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket: clamp
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a registry's full point-in-time state, ordered by metric
// name; it marshals to the JSON served by atfd's per-session /stats.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter snapshot (zero value when absent).
func (s Snapshot) Counter(name string) CounterSnapshot {
	for _, c := range s.Counters {
		if c.Name == name {
			return c
		}
	}
	return CounterSnapshot{Name: name}
}

// Histogram returns the named histogram snapshot (zero value if absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramSnapshot{Name: name}
}

// Snapshot captures the registry's current state. Individual metric
// reads are atomic; the snapshot as a whole is not a consistent cut
// across metrics (none is needed for monitoring).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counts))
	for _, c := range r.counts {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, h := range hists {
		hs := HistogramSnapshot{
			Name: h.name, Help: h.help,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
