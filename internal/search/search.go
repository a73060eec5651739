// Package search provides ATF's pre-implemented search techniques
// (paper, Section IV): exhaustive search, simulated annealing, and — via
// package opentuner — the OpenTuner ensemble. All techniques implement
// core.Technique; users add their own the same way.
package search

import (
	"math"
	"math/rand"

	"atf/internal/core"
)

// Exhaustive iterates the search space in index order and therefore finds
// the provably best configuration (Section IV-A). finalize and report_cost
// are no-ops, exactly as in the paper.
//
// Enumeration streams through a core.Sweep cursor instead of per-index
// At(i) lookups: one resumable descent is amortized across whole chunks,
// and production of the next chunk overlaps the caller's evaluation of the
// current one. Exhaustive implements core.BatchTechnique directly, so the
// exploration engine (and through it the distributed coordinator's batch
// partitioning) draws whole batches straight off the sweep; the emitted
// sequence is bit-identical to the historical At(0), At(1), ... walk.
type Exhaustive struct {
	sp    *core.Space
	sweep *core.Sweep
	buf   []*core.Config
}

// minSweepChunk is the fewest configurations a refill draws from the
// sweep. Exploration at one worker asks for batches of one; drawing each
// of them as its own sweep chunk would cost one descent (and one prefetch
// goroutine) per configuration.
const minSweepChunk = 64

// NewExhaustive returns an exhaustive search technique.
func NewExhaustive() *Exhaustive { return &Exhaustive{} }

// Initialize opens a streaming sweep over the space at index 0.
func (e *Exhaustive) Initialize(sp *core.Space, seed int64) {
	if e.sweep != nil {
		e.sweep.Close()
	}
	e.sp = sp
	e.buf = nil
	e.sweep = sp.Sweep(0, core.SweepOptions{Prefetch: true})
}

// Finalize releases the sweep (draining any prefetch in flight).
func (e *Exhaustive) Finalize() {
	if e.sweep != nil {
		e.sweep.Close()
		e.sweep = nil
	}
	e.buf = nil
}

// GetNextConfig returns each configuration of the space exactly once, then
// nil.
func (e *Exhaustive) GetNextConfig() *core.Config {
	if batch := e.GetNextBatch(1); len(batch) > 0 {
		return batch[0]
	}
	return nil
}

// GetNextBatch returns the next n configurations in index order straight
// off the sweep, a short batch at the end of the space, then nil.
func (e *Exhaustive) GetNextBatch(n int) []*core.Config {
	if len(e.buf) < n {
		more := e.sweep.NextChunk(max(n-len(e.buf), minSweepChunk))
		if len(e.buf) == 0 {
			e.buf = more
		} else {
			e.buf = append(e.buf, more...)
		}
	}
	k := min(n, len(e.buf))
	if k == 0 {
		return nil
	}
	batch := e.buf[:k:k]
	e.buf = e.buf[k:]
	return batch
}

// ReportCost is void for exhaustive search.
func (e *Exhaustive) ReportCost(core.Cost) {}

// ReportCosts is void for exhaustive search.
func (e *Exhaustive) ReportCosts([]core.Evaluation) {}

// CostOblivious marks exhaustive search as safe for pipelined dispatch:
// the enumeration order never depends on reported costs.
func (e *Exhaustive) CostOblivious() bool { return true }

// DefaultAnnealingTemperature is the temperature the paper reports as
// suitable for OpenCL and CUDA search spaces (T = 4, citing CLTune).
const DefaultAnnealingTemperature = 4.0

// Annealing is simulated annealing over the configuration index space
// (Section IV-B). get_next_config proposes a random neighbour c' of the
// current configuration c; after the cost t' is reported, c' replaces c
// with probability
//
//	P(t, t', T) = exp(-(t'-t)/T)   if t' >= t, else 1.
//
// Costs are normalized by the best cost seen so far, so the acceptance
// probability is scale-free (raw nanosecond differences would make P
// vanish for any kernel slower than a few units).
type Annealing struct {
	// Temperature is the annealing temperature T; 0 selects the paper's
	// default of 4.
	Temperature float64
	// Cooling multiplies the temperature after every step; 1 (default)
	// reproduces the paper's constant-temperature annealer.
	Cooling float64
	// Start warm-starts the walk at a known configuration (e.g. a
	// library's shipped defaults) instead of a random point. The
	// configuration must be a member of the search space; otherwise the
	// start falls back to random.
	Start *core.Config
	// RestartAfter jumps back to the best configuration seen (then, on
	// repeat, to a random point) after this many consecutive rejected
	// moves; 0 disables restarts (the paper's plain annealer).
	RestartAfter int

	sp      *core.Space
	rng     *rand.Rand
	current uint64
	pending uint64
	cost    float64 // current configuration's primary cost
	best    float64 // best primary cost seen (for normalization)
	bestIdx uint64
	rejects int
	atBest  bool
	started bool
	temp    float64
}

// NewAnnealing returns a simulated-annealing technique with the paper's
// default temperature.
func NewAnnealing() *Annealing { return &Annealing{} }

// Initialize allocates the annealer's state for the passed space.
func (a *Annealing) Initialize(sp *core.Space, seed int64) {
	a.sp = sp
	a.rng = rand.New(rand.NewSource(seed))
	a.temp = a.Temperature
	if a.temp <= 0 {
		a.temp = DefaultAnnealingTemperature
	}
	if a.Cooling <= 0 {
		a.Cooling = 1
	}
	a.started = false
	a.cost = math.Inf(1)
	a.best = math.Inf(1)
	a.rejects = 0
	a.atBest = false
}

// Finalize releases the annealer's state.
func (a *Annealing) Finalize() { a.sp = nil }

// GetNextConfig proposes the start configuration first, then a random
// neighbour of the current configuration, with optional restarts.
func (a *Annealing) GetNextConfig() *core.Config {
	switch {
	case !a.started:
		a.pending = a.sp.RandomIndex(a.rng)
		if a.Start != nil {
			if idx, ok := a.sp.IndexOf(a.Start); ok {
				a.pending = idx
			}
		}
	case a.RestartAfter > 0 && a.rejects >= a.RestartAfter:
		a.rejects = 0
		if !a.atBest {
			// First escape: resume from the best point seen.
			a.pending = a.bestIdx
			a.atBest = true
		} else {
			// Still stuck around the best: diversify randomly.
			a.pending = a.sp.RandomIndex(a.rng)
			a.atBest = false
		}
	default:
		a.pending = a.sp.Neighbor(a.current, a.rng)
	}
	return a.sp.At(a.pending)
}

// ReportCost applies the Metropolis acceptance rule to the pending
// configuration.
func (a *Annealing) ReportCost(cost core.Cost) {
	t := cost.Primary()
	if !a.started {
		a.started = true
		a.current, a.cost = a.pending, t
		if t < a.best {
			a.best = t
			a.bestIdx = a.pending
		}
		return
	}
	if t < a.best {
		a.best = t
		a.bestIdx = a.pending
		a.rejects = 0
		a.atBest = false
	} else {
		a.rejects++
	}
	accept := false
	switch {
	case math.IsInf(t, 1):
		accept = false // never walk onto an invalid configuration
	case t <= a.cost || math.IsInf(a.cost, 1):
		accept = true
	default:
		// Normalize by the best cost so far: delta is "how many best-
		// runtimes worse" the candidate is.
		delta := (t - a.cost) / a.best
		accept = a.rng.Float64() < math.Exp(-delta/a.temp)
	}
	if accept {
		a.current, a.cost = a.pending, t
	}
	a.temp *= a.Cooling
}

// Random samples configurations uniformly at random — a useful baseline
// and the behaviour OpenTuner degenerates to on spaces it cannot model.
type Random struct {
	sp  *core.Space
	rng *rand.Rand
}

// NewRandom returns a uniform-random search technique.
func NewRandom() *Random { return &Random{} }

// Initialize seeds the sampler.
func (r *Random) Initialize(sp *core.Space, seed int64) {
	r.sp = sp
	r.rng = rand.New(rand.NewSource(seed))
}

// Finalize is void.
func (r *Random) Finalize() {}

// GetNextConfig returns a uniformly random configuration.
func (r *Random) GetNextConfig() *core.Config { return r.sp.Random(r.rng) }

// ReportCost is void.
func (r *Random) ReportCost(core.Cost) {}

// CostOblivious marks random search as safe for pipelined dispatch: the
// seeded sample sequence never depends on reported costs.
func (r *Random) CostOblivious() bool { return true }

// LocalSearch is a simple first-improvement hill climber over the index
// neighbourhood. It is not in the paper's set of three techniques; it
// exists as the example of extending ATF with a user-defined technique
// (Section IV: "further search techniques can be added by implementing the
// search_technique interface") and is exercised by examples/customsearch.
type LocalSearch struct {
	// Restarts controls how many random restarts follow a local optimum.
	Patience int

	sp      *core.Space
	rng     *rand.Rand
	current uint64
	pending uint64
	cost    float64
	stale   int
	started bool
}

// NewLocalSearch returns a hill climber with the given patience (failed
// moves before a random restart); patience <= 0 defaults to 32.
func NewLocalSearch(patience int) *LocalSearch {
	if patience <= 0 {
		patience = 32
	}
	return &LocalSearch{Patience: patience}
}

// Initialize seeds the climber.
func (l *LocalSearch) Initialize(sp *core.Space, seed int64) {
	l.sp = sp
	l.rng = rand.New(rand.NewSource(seed))
	l.started = false
	l.stale = 0
	l.cost = math.Inf(1)
}

// Finalize is void.
func (l *LocalSearch) Finalize() {}

// GetNextConfig proposes a neighbour, restarting randomly after too many
// non-improving moves.
func (l *LocalSearch) GetNextConfig() *core.Config {
	switch {
	case !l.started:
		l.pending = l.sp.RandomIndex(l.rng)
	case l.stale >= l.Patience:
		l.pending = l.sp.RandomIndex(l.rng)
	default:
		l.pending = l.sp.Neighbor(l.current, l.rng)
	}
	return l.sp.At(l.pending)
}

// ReportCost accepts strictly improving moves.
func (l *LocalSearch) ReportCost(cost core.Cost) {
	t := cost.Primary()
	if !l.started || t < l.cost {
		l.started = true
		l.current, l.cost = l.pending, t
		l.stale = 0
		return
	}
	l.stale++
	if l.stale >= l.Patience {
		// Next GetNextConfig restarts; forget the local cost so the
		// restart point is always adopted.
		l.cost = math.Inf(1)
	}
}
