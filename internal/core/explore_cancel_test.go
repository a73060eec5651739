package core

import (
	"context"
	"sync/atomic"
	"testing"
)

// cancelSpace builds a small 1-D space for cancellation tests.
func cancelSpace(t *testing.T, n int64) *Space {
	t.Helper()
	p := NewParam("X", NewInterval(1, n))
	sp, err := GenerateFlat([]*Param{p}, GenOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestExploreContextCancel(t *testing.T) {
	sp := cancelSpace(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		if evals.Add(1) == 10 {
			cancel()
		}
		return SingleCost(float64(cfg.Int("X"))), nil
	})
	res, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= 1000 {
		t.Errorf("cancellation ignored: %d evaluations", res.Evaluations)
	}
	if res.Best == nil || res.BestCost.Primary() != 1 {
		t.Errorf("partial result lost: best = %v", res.Best)
	}
}

func TestExploreParallelContextCancel(t *testing.T) {
	sp := cancelSpace(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	cf := CostFunc(func(cfg *Config) (Cost, error) {
		if evals.Add(1) == 10 {
			cancel()
		}
		return SingleCost(float64(cfg.Int("X"))), nil
	})
	res, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{
		Context: ctx,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= 1000 {
		t.Errorf("cancellation ignored: %d evaluations", res.Evaluations)
	}
	if ctx.Err() == nil {
		t.Error("context should be canceled")
	}
}
