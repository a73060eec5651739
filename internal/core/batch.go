package core

// BatchTechnique is the batched counterpart of Technique: instead of one
// configuration at a time, the technique hands the exploration engine a
// batch of configurations to evaluate concurrently and receives all their
// evaluations back at once, in batch order. Techniques that can propose
// several independent candidates per step (exhaustive, random, population
// methods) implement it directly; sequential techniques are adapted via
// Batcher.
type BatchTechnique interface {
	// Initialize is called once before exploration with the generated
	// search space and a seed for deterministic randomness.
	Initialize(sp *Space, seed int64)
	// Finalize is called once after exploration.
	Finalize()
	// GetNextBatch returns up to n configurations to evaluate next. An
	// empty batch ends exploration (technique exhausted).
	GetNextBatch(n int) []*Config
	// ReportCosts reports the evaluations of the most recent batch back
	// to the technique, in batch order. When exploration aborts mid-batch
	// only the evaluations that were committed are reported. The engine
	// reuses the slice for the next batch, so implementations must copy
	// what they keep.
	ReportCosts(evals []Evaluation)
}

// CostOblivious marks a technique whose proposal sequence does not depend
// on reported costs: the configurations it returns are a function of the
// space and seed alone (exhaustive enumeration, seeded random sampling).
// The exploration engine may pipeline such techniques — draw and dispatch
// batch k+1 before batch k's costs are reported — without changing the
// proposal walk, so results stay bit-identical to the unpipelined run.
// Adaptive techniques (annealing, local search, OpenTuner) must not
// implement it.
type CostOblivious interface {
	// CostOblivious reports whether proposals ignore reported costs.
	CostOblivious() bool
}

// costOblivious reports whether bt is safe to pipeline, looking through
// the Batcher adapter at the wrapped sequential technique.
func costOblivious(bt BatchTechnique) bool {
	if b, ok := bt.(*Batcher); ok {
		co, ok := b.Tech.(CostOblivious)
		return ok && co.CostOblivious()
	}
	co, ok := bt.(CostOblivious)
	return ok && co.CostOblivious()
}

// Batcher adapts a sequential Technique to BatchTechnique. GetNextBatch
// draws up to n configurations through GetNextConfig without intermediate
// cost feedback, so for stateful techniques (annealing, local search) the
// batch is speculative: proposals 2..n are made as if the preceding
// proposals' costs were still unknown. ReportCosts then replays the costs
// in batch order through ReportCost, so the technique's state advances
// exactly as if the batch had been explored sequentially with delayed
// feedback. Stateless techniques (exhaustive, random) behave identically
// to their sequential runs.
type Batcher struct {
	Tech Technique

	exhausted bool
}

// AsBatch returns t's batched form: t itself when it already implements
// BatchTechnique, otherwise a Batcher adapter around it.
func AsBatch(t Technique) BatchTechnique {
	if bt, ok := t.(BatchTechnique); ok {
		return bt
	}
	return &Batcher{Tech: t}
}

// Initialize forwards to the wrapped technique.
func (b *Batcher) Initialize(sp *Space, seed int64) {
	b.exhausted = false
	b.Tech.Initialize(sp, seed)
}

// Finalize forwards to the wrapped technique.
func (b *Batcher) Finalize() { b.Tech.Finalize() }

// GetNextBatch draws up to n configurations from the wrapped technique. A
// nil configuration marks exhaustion; the partial batch is returned and all
// later batches are empty.
func (b *Batcher) GetNextBatch(n int) []*Config {
	if b.exhausted {
		return nil
	}
	batch := make([]*Config, 0, n)
	for len(batch) < n {
		cfg := b.Tech.GetNextConfig()
		if cfg == nil {
			b.exhausted = true
			break
		}
		batch = append(batch, cfg)
	}
	return batch
}

// ReportCosts replays the batch's costs through ReportCost in order.
func (b *Batcher) ReportCosts(evals []Evaluation) {
	for _, ev := range evals {
		b.Tech.ReportCost(ev.Cost)
	}
}
