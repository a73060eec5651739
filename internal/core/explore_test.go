package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// indexWalker is a minimal deterministic technique iterating the space in
// index order (an inline exhaustive search for exercising the loop).
type indexWalker struct {
	sp   *Space
	next uint64
	// reports records every cost reported back, to verify the protocol.
	reports []Cost
	inited  bool
	finaled bool
}

func (w *indexWalker) Initialize(sp *Space, seed int64) { w.sp = sp; w.inited = true }
func (w *indexWalker) Finalize()                        { w.finaled = true }
func (w *indexWalker) GetNextConfig() *Config {
	if w.next >= w.sp.Size() {
		return nil
	}
	c := w.sp.At(w.next)
	w.next++
	return c
}
func (w *indexWalker) ReportCost(cost Cost) { w.reports = append(w.reports, cost) }

// quadratic cost: minimum at WPT=N (fewest work-items is best under this
// toy model), with the exact value depending on both parameters.
func quadCost(n int64) CostFunction {
	return ScalarCostFunc(func(cfg *Config) float64 {
		wpt := float64(cfg.Int("WPT"))
		ls := float64(cfg.Int("LS"))
		return (float64(n)-wpt)*(float64(n)-wpt) + ls
	})
}

func mustSpace(t testing.TB, params []*Param) *Space {
	t.Helper()
	sp, err := GenerateFlat(params, GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestExploreFindsExhaustiveOptimum(t *testing.T) {
	const n = 24
	sp := mustSpace(t, saxpyParams(n))
	w := &indexWalker{}
	res, err := Explore(sp, w, quadCost(n), nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != sp.Size() {
		t.Fatalf("evaluations = %d, want %d (default abort is evaluations(S))",
			res.Evaluations, sp.Size())
	}
	// Optimum: WPT=24, LS=1 (LS must divide N/WPT=1).
	if res.Best.Int("WPT") != 24 || res.Best.Int("LS") != 1 {
		t.Fatalf("best = %v", res.Best)
	}
	if res.BestCost.Primary() != 1 {
		t.Fatalf("best cost = %v, want 1", res.BestCost)
	}
	if !w.inited || !w.finaled {
		t.Error("Initialize/Finalize protocol violated")
	}
	if uint64(len(w.reports)) != res.Evaluations {
		t.Error("every evaluation must be reported back")
	}
}

func TestExploreAbortsOnEvaluations(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	res, err := Explore(sp, &indexWalker{}, quadCost(64), Evaluations(5), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 5 {
		t.Fatalf("evaluations = %d, want 5", res.Evaluations)
	}
}

// TestExploreStopsAtBudget: at one worker the abort condition is checked
// before each configuration is drawn, so neither the technique nor the
// cost function is asked for anything past the budget — with a costly
// cost function an evaluation past the budget is time thrown away.
func TestExploreStopsAtBudget(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	calls := 0
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		calls++
		return SingleCost(float64(cfg.Int("WPT"))), nil
	})
	w := &indexWalker{}
	res, err := Explore(sp, w, cf, Evaluations(5), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 5 || calls != 5 || w.next != 5 {
		t.Fatalf("evaluations %d, cost calls %d, configurations drawn %d; want 5 each", res.Evaluations, calls, w.next)
	}
}

func TestExploreVirtualClockDuration(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(time.Second)
		return now
	}
	res, err := Explore(sp, &indexWalker{}, quadCost(64), Duration(30*time.Second),
		ExploreOptions{Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Evaluations >= sp.Size() {
		t.Fatalf("duration abort should stop mid-run, evals = %d of %d", res.Evaluations, sp.Size())
	}
}

func TestExploreErrorsBecomeInfiniteCost(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	boom := errors.New("kernel launch failed")
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		if cfg.Int("WPT") == 1 {
			return nil, boom
		}
		return SingleCost(float64(cfg.Int("WPT"))), nil
	})
	res, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Int("WPT") == 1 {
		t.Error("failed configs must not win")
	}
	if res.Valid >= res.Evaluations {
		t.Error("some evaluations should have been invalid")
	}
	foundErr := false
	for _, ev := range res.History {
		if ev.Err != nil {
			foundErr = true
			if !ev.Cost.IsInf() {
				t.Error("failed evaluation must carry infinite cost")
			}
		}
	}
	if !foundErr {
		t.Error("history should record the error")
	}
}

func TestExploreAllInvalid(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	cf := CostFunc(func(*Config) (Cost, error) { return nil, errors.New("nope") })
	res, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil || res.BestCost != nil {
		t.Error("no valid config → no best")
	}
	if res.Valid != 0 {
		t.Error("valid count should be zero")
	}
}

func TestExploreCaching(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	calls := 0
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		calls++
		return SingleCost(1), nil
	})
	// A technique that returns the same config forever.
	stuck := &stuckTechnique{}
	res, err := Explore(sp, stuck, cf, Evaluations(50), ExploreOptions{CacheCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 50 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if calls != 1 {
		t.Fatalf("cost function called %d times, want 1 (cached)", calls)
	}
}

type stuckTechnique struct{ sp *Space }

func (s *stuckTechnique) Initialize(sp *Space, seed int64) { s.sp = sp }
func (s *stuckTechnique) Finalize()                        {}
func (s *stuckTechnique) GetNextConfig() *Config           { return s.sp.At(0) }
func (s *stuckTechnique) ReportCost(Cost)                  {}

func TestExploreMultiObjectiveLexicographic(t *testing.T) {
	sp := mustSpace(t, []*Param{NewParam("x", NewInterval(1, 4))})
	// Runtime identical for x=2 and x=3; energy breaks the tie (paper,
	// Section II Step 2: lexicographic order on (runtime, energy)).
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		switch cfg.Int("x") {
		case 1:
			return Cost{10, 1}, nil
		case 2:
			return Cost{5, 9}, nil
		case 3:
			return Cost{5, 2}, nil
		default:
			return Cost{7, 0}, nil
		}
	})
	res, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Int("x") != 3 {
		t.Fatalf("best = %v, want x=3 (same runtime, lower energy)", res.Best)
	}
}

func TestExploreCustomOrder(t *testing.T) {
	sp := mustSpace(t, []*Param{NewParam("x", NewInterval(1, 3))})
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		switch cfg.Int("x") {
		case 1:
			return Cost{1, 100}, nil
		case 2:
			return Cost{2, 1}, nil
		default:
			return Cost{3, 3}, nil
		}
	})
	// Weighted sum 1*a+1*b: x=2 wins (3) over x=3 (6) and x=1 (101).
	res, err := Explore(sp, &indexWalker{}, cf, nil,
		ExploreOptions{Order: WeightedSumOrder(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Int("x") != 2 {
		t.Fatalf("best = %v, want x=2 under weighted-sum order", res.Best)
	}
}

func TestExploreImprovementsMonotone(t *testing.T) {
	sp := mustSpace(t, saxpyParams(48))
	res, err := Explore(sp, &indexWalker{}, quadCost(48), nil, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Improvements) == 0 {
		t.Fatal("expected at least one improvement")
	}
	for i := 1; i < len(res.Improvements); i++ {
		if !res.Improvements[i].Cost.Less(res.Improvements[i-1].Cost) {
			t.Fatal("improvements must strictly decrease")
		}
	}
	last := res.Improvements[len(res.Improvements)-1]
	if last.Cost.Primary() != res.BestCost.Primary() {
		t.Error("final improvement must match the best cost")
	}
}

func TestExploreRejectsBadInputs(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	cf := quadCost(12)
	if _, err := Explore(nil, &indexWalker{}, cf, nil, ExploreOptions{}); err == nil {
		t.Error("nil space must error")
	}
	if _, err := Explore(sp, nil, cf, nil, ExploreOptions{}); err == nil {
		t.Error("nil technique must error")
	}
	if _, err := Explore(sp, &indexWalker{}, nil, nil, ExploreOptions{}); err == nil {
		t.Error("nil cost function must error")
	}
	empty := mustSpace(t, []*Param{NewParam("x", NewSet(3), Divides(8))})
	if _, err := Explore(empty, &indexWalker{}, cf, nil, ExploreOptions{}); err == nil {
		t.Error("empty space must error")
	}
}

func TestExploreOnEvaluationObserver(t *testing.T) {
	sp := mustSpace(t, saxpyParams(12))
	var seen []uint64
	_, err := Explore(sp, &indexWalker{}, quadCost(12), Evaluations(4), ExploreOptions{
		OnEvaluation: func(ev Evaluation) { seen = append(seen, ev.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("observer saw %d evaluations, want 4", len(seen))
	}
	for i, idx := range seen {
		if idx != uint64(i) {
			t.Fatal("evaluation indices must be sequential")
		}
	}
}

func TestExploreTechniqueExhaustion(t *testing.T) {
	// A technique returning nil ends exploration even without abort firing.
	sp := mustSpace(t, saxpyParams(12))
	res, err := Explore(sp, &indexWalker{}, quadCost(12), Evaluations(1<<40), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != sp.Size() {
		t.Fatalf("walker should stop after covering the space once, evals=%d", res.Evaluations)
	}
}

func TestCostLexicographicOrdering(t *testing.T) {
	cases := []struct {
		a, b Cost
		less bool
	}{
		{Cost{1}, Cost{2}, true},
		{Cost{2}, Cost{1}, false},
		{Cost{1, 5}, Cost{1, 6}, true},
		{Cost{1, 6}, Cost{1, 5}, false},
		{Cost{1}, Cost{1, 0}, true}, // prefix is smaller
		{Cost{1, 0}, Cost{1}, false},
		{Cost{1, 2}, Cost{1, 2}, false},
	}
	for i, c := range cases {
		if c.a.Less(c.b) != c.less {
			t.Errorf("case %d: %v < %v should be %v", i, c.a, c.b, c.less)
		}
	}
}

func TestCostHelpers(t *testing.T) {
	if !InfCost().IsInf() {
		t.Error("InfCost must be infinite")
	}
	if Cost(nil).Primary() == 0 {
		t.Error("empty cost primary should be +inf")
	}
	if SingleCost(3).Primary() != 3 {
		t.Error("SingleCost broken")
	}
	c := Cost{1, 2}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Error("Clone must copy")
	}
	if SingleCost(1.5).String() != "1.5" {
		t.Errorf("String = %q", SingleCost(1.5).String())
	}
	if (Cost{1, 2}).String() != "(1, 2)" {
		t.Errorf("String = %q", (Cost{1, 2}).String())
	}
}

func TestExploreDeterministicWithSeed(t *testing.T) {
	// A randomized technique must reproduce runs given the same seed.
	sp := mustSpace(t, saxpyParams(64))
	run := func(seed int64) string {
		tech := &randomTechnique{}
		var picks string
		_, err := Explore(sp, tech, quadCost(64), Evaluations(20), ExploreOptions{
			Seed:         seed,
			OnEvaluation: func(ev Evaluation) { picks += fmt.Sprint(ev.Config.String(), ";") },
		})
		if err != nil {
			t.Fatal(err)
		}
		return picks
	}
	if run(42) != run(42) {
		t.Error("same seed must reproduce the run")
	}
	if run(42) == run(43) {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

type randomTechnique struct {
	sp  *Space
	rng *rand.Rand
}

func (r *randomTechnique) Initialize(sp *Space, seed int64) {
	r.sp = sp
	r.rng = rand.New(rand.NewSource(seed))
}
func (r *randomTechnique) Finalize()              {}
func (r *randomTechnique) GetNextConfig() *Config { return r.sp.Random(r.rng) }
func (r *randomTechnique) ReportCost(Cost)        {}
