package atf_test

// Benchmark harness: one testing.B benchmark per paper artifact (DESIGN.md
// §4, E1–E9) plus the ablation benches of DESIGN.md §6. The benchmarks use
// reduced budgets so `go test -bench=.` stays tractable on a laptop; the
// full-budget numbers recorded in EXPERIMENTS.md come from
// cmd/atf-experiments. Each benchmark reports the paper-relevant metric
// (speedups, space sizes, generation times) via b.ReportMetric, so the
// *shape* of the result is visible directly in the bench output.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"atf"
	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/harness"
	"atf/internal/oclc"
	"atf/internal/opencl"
	"atf/internal/opentuner"
	"atf/internal/search"
)

// benchOpts are the reduced budgets used by the benchmarks.
func benchOpts() harness.Options {
	return harness.Options{
		Seed:           1,
		RangeCap:       16, // 86k valid configs; full runs use 64
		ATFEvals:       60,
		OpenTunerEvals: 2000,
		DevOptEvals:    30,
	}
}

// BenchmarkFig2CPU regenerates E1 (Fig. 2 left): ATF vs CLTune vs
// OpenTuner on the simulated Xeon, reporting the mean speedups. Note that
// at the reduced bench budget (range cap 16) ATF's space excludes the
// WGD=32 configurations the CLTune fallback may use, so the GPU variant
// can dip slightly below 1; the full-budget results live in
// EXPERIMENTS.md.
func BenchmarkFig2CPU(b *testing.B) {
	benchmarkFig2(b, "Xeon")
}

// BenchmarkFig2GPU regenerates E2 (Fig. 2 right) on the simulated K20m.
func BenchmarkFig2GPU(b *testing.B) {
	benchmarkFig2(b, "K20m")
}

func benchmarkFig2(b *testing.B, device string) {
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig2(device, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var cl, ot float64
		for _, row := range r.Rows {
			cl += row.SpeedupVsCLTune
			ot += row.SpeedupVsOpenTuner
		}
		b.ReportMetric(cl/float64(len(r.Rows)), "speedup-vs-cltune")
		b.ReportMetric(ot/float64(len(r.Rows)), "speedup-vs-opentuner")
	}
}

// BenchmarkSpaceGenATF regenerates E3's ATF side: constrained nested
// generation of the unrestricted XgemmDirect space (32×32 setting).
func BenchmarkSpaceGenATF(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := core.CountGroup(core.G(params...), core.GenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "valid-configs")
	}
}

// BenchmarkSpaceGenCLTune regenerates E3's CLTune side with a visit budget
// (full enumeration of the 6.9e10-combination product is the paper's
// "aborted after 3 hours"); reports the projected full-enumeration time.
func BenchmarkSpaceGenCLTune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.SpaceGen(32, 2e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !r.CLTuneAborted {
			b.Fatal("budget unexpectedly sufficient")
		}
		b.ReportMetric(r.CLTuneProjected.Seconds(), "projected-full-s")
		b.ReportMetric(r.ATFTime.Seconds(), "atf-s")
	}
}

// BenchmarkSpaceSize regenerates E4: unconstrained vs constrained space
// sizes (reduced cap; the 2^10 census runs via cmd/atf-experiments).
func BenchmarkSpaceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.Sizes(64, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Constrained), "valid-configs")
	}
}

// BenchmarkRelaxedConstraints regenerates E5: ATF with vs without the two
// CLTune-style global-size constraints on IS4/GPU.
func BenchmarkRelaxedConstraints(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rs, err := harness.Relaxed("K20m", opts)
		if err != nil {
			b.Fatal(err)
		}
		is4 := rs[3]
		b.ReportMetric(float64(is4.ConstrainedSize), "constrained-space")
		b.ReportMetric(float64(is4.RelaxedSize), "relaxed-space")
	}
}

// BenchmarkOpenTunerValidity regenerates E6: valid hits of the raw-space
// OpenTuner baseline.
func BenchmarkOpenTunerValidity(b *testing.B) {
	opts := benchOpts()
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: opts.RangeCap})
	dev, err := opencl.FindDevice("", "K20m")
	if err != nil {
		b.Fatal(err)
	}
	shape := clblast.CaffeInputSizes()[3]
	eval := clblast.NewGemmEvaluator(dev, shape, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := &opentuner.RawTuner{Params: params, Validate: func(cfg *core.Config) bool {
			return clblast.ValidateConfig(cfg, params)
		}}
		run, err := rt.Tune(eval.CostFunction(), opts.OpenTunerEvals, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.ValidEvals), "valid-hits")
	}
}

// BenchmarkDefaultsVsDeviceOptimized regenerates E7 on the CPU, where the
// paper's surprise (defaults beat the 256×256-optimized values) is
// strongest.
func BenchmarkDefaultsVsDeviceOptimized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := harness.Defaults("Xeon", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		wins := 0
		for _, r := range rs {
			if r.DefaultWins {
				wins++
			}
		}
		b.ReportMetric(float64(wins), "defaults-wins-of-4")
	}
}

// BenchmarkSaxpyTuning regenerates E8: the Listing 2 end-to-end flow.
func BenchmarkSaxpyTuning(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		cf, err := (&atf.OpenCL{
			Platform: "NVIDIA", Device: "K20c",
			Source: clblast.SaxpySource, Kernel: "saxpy",
			Args: []atf.KernelArg{
				atf.Scalar(int32(n)), atf.RandomScalar(),
				atf.RandomBuffer(n), atf.RandomBuffer(n),
			},
			GlobalSize: func(c *atf.Config) []int64 { return []int64{n / c.Int("WPT")} },
			LocalSize:  func(c *atf.Config) []int64 { return []int64{c.Int("LS")} },
		}).CostFunction()
		if err != nil {
			b.Fatal(err)
		}
		wpt := atf.TP("WPT", atf.Interval(1, n), atf.Divides(n))
		ls := atf.TP("LS", atf.Interval(1, n),
			atf.Divides(func(c *atf.Config) int64 { return n / c.Int("WPT") }))
		res, err := atf.Tuner{
			Technique:  atf.SimulatedAnnealing(),
			Abort:      atf.Evaluations(80),
			CacheCosts: true,
		}.Tune(cf, wpt, ls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestCost.Primary(), "best-ns")
	}
}

// BenchmarkParallelSpaceGen regenerates E9: grouped (parallel) vs
// single-worker generation. On a single-core host the speedup is ~1.
func BenchmarkParallelSpaceGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.Groups(4, 256, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "gen-speedup")
	}
}

// --- ablation benches (DESIGN.md §6) -----------------------------------

// BenchmarkGenerationTrieVsCount isolates the trie's materialization cost
// against the pure constrained iteration.
func BenchmarkGenerationTrieVsCount(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 16})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.CountGroup(core.G(params...), core.GenOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GenerateFlat(params, core.GenOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexLookup measures the trie's O(depth·branching) index
// decode, the operation every index-based technique leans on.
func BenchmarkIndexLookup(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 16})
	sp, err := core.GenerateFlat(params, core.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.At(uint64(i) % sp.Size())
	}
}

// BenchmarkAnnealingTemperature ablates the paper's T=4 default against
// greedier and more permissive temperatures on the saxpy space.
func BenchmarkAnnealingTemperature(b *testing.B) {
	const n = 1 << 16
	dev, err := opencl.FindDevice("NVIDIA", "K20m")
	if err != nil {
		b.Fatal(err)
	}
	eval := clblast.NewSaxpyEvaluator(dev, n, 1)
	sp, err := core.GenerateFlat(clblast.SaxpyParams(n), core.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		temp float64
	}{{"T1", 1}, {"T4-paper", 4}, {"T16", 16}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Explore(sp,
					&search.Annealing{Temperature: tc.temp},
					eval.CostFunction(), core.Evaluations(80),
					core.ExploreOptions{Seed: int64(i + 1), CacheCosts: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.BestCost.Primary(), "best-ns")
			}
		})
	}
}

// BenchmarkOpenTunerIndexVsRaw ablates Section IV-C against §VI-B: the
// same OpenTuner engine over ATF's valid-only index space versus the raw
// penalized space, same budget.
func BenchmarkOpenTunerIndexVsRaw(b *testing.B) {
	opts := benchOpts()
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: opts.RangeCap})
	dev, err := opencl.FindDevice("", "K20m")
	if err != nil {
		b.Fatal(err)
	}
	eval := clblast.NewGemmEvaluator(dev, clblast.CaffeInputSizes()[3], 1)
	sp, err := core.GenerateFlat(params, core.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Explore(sp, opentuner.NewIndexTechnique(),
				eval.CostFunction(), core.Evaluations(100),
				core.ExploreOptions{Seed: int64(i + 1), CacheCosts: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Valid), "valid-evals")
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := &opentuner.RawTuner{Params: params, Validate: func(cfg *core.Config) bool {
				return clblast.ValidateConfig(cfg, params)
			}}
			run, err := rt.Tune(eval.CostFunction(), 100, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(run.ValidEvals), "valid-evals")
		}
	})
}

// BenchmarkDivisorHints ablates the divisor-hinted range iteration (a
// beyond-paper extension): same space, fewer scanned candidates at the
// divides-constrained levels.
func BenchmarkDivisorHints(b *testing.B) {
	for _, tc := range []struct {
		name  string
		hints bool
	}{{"plain", false}, {"hinted", true}} {
		b.Run(tc.name, func(b *testing.B) {
			params := clblast.XgemmDirectParams(clblast.SpaceOptions{
				RangeCap: 64, DivisorHints: tc.hints,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, checks, err := core.CountGroup(core.G(params...), core.GenOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(checks), "checks")
				b.ReportMetric(float64(n), "valid-configs")
			}
		})
	}
}

// BenchmarkGenerateSpace measures the space-generation hot path on the
// full XgemmDirect space (reduced cap 32; the cap-64 numbers live in
// results/spacegen.md) across the memoization ablation and worker counts.
// Constraint checks and the unique/logical node ratio are reported so a
// benchdiff run shows the sharing effect alongside the wall clock.
func BenchmarkGenerateSpace(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 32})
	for _, tc := range []struct {
		name string
		mode core.MemoMode
	}{{"memo-off", core.MemoOff}, {"memo-on", core.MemoOn}} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sp, err := core.GenerateFlat(params, core.GenOptions{
						Workers: workers, Memoize: tc.mode,
					})
					if err != nil {
						b.Fatal(err)
					}
					logical, unique := sp.NodeCounts()
					b.ReportMetric(float64(sp.Checks()), "checks")
					b.ReportMetric(float64(logical), "logical-nodes")
					b.ReportMetric(float64(unique), "unique-nodes")
				}
			})
		}
	}
}

// BenchmarkGenerateSpaceLazy measures lazy streaming construction on the
// paper's headline space: XgemmDirect with uncapped {1..1024} ranges (raw
// product beyond 10^19), counting-only Size plus a sweep of 100 At calls,
// reporting the expanded-slab bytes left resident.
func BenchmarkGenerateSpaceLazy(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 1024, DivisorHints: true})
	for i := 0; i < b.N; i++ {
		sp, err := core.GenerateFlat(params, core.GenOptions{MaxArenaBytes: 256 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if sp.LazyGroups() != 1 {
			b.Fatal("expected lazy construction")
		}
		step := sp.Size()/100 + 1
		for idx := uint64(0); idx < sp.Size(); idx += step {
			sp.At(idx)
		}
		_, _, resident := sp.LazyStats()
		b.ReportMetric(float64(sp.Size()), "valid-configs")
		b.ReportMetric(float64(sp.Checks()), "checks")
		b.ReportMetric(float64(resident), "resident-bytes")
	}
}

// BenchmarkKernelInterpreter measures the simulated-OpenCL substrate
// itself: one sampled XgemmDirect launch per iteration, under each
// execution engine. engine=walk is the tree-walking reference and
// engine=vm-vec the lockstep-vectorized production path.
func BenchmarkKernelInterpreter(b *testing.B) {
	dev, err := opencl.FindDevice("", "K20m")
	if err != nil {
		b.Fatal(err)
	}
	prev := oclc.DefaultEngine()
	defer oclc.SetDefaultEngine(prev)
	for _, eng := range []oclc.Engine{oclc.EngineWalk, oclc.EngineVMVec} {
		b.Run("engine="+eng.String(), func(b *testing.B) {
			oclc.SetDefaultEngine(eng)
			eval := clblast.NewGemmEvaluator(dev, clblast.CaffeInputSizes()[1], 1)
			cfg := clblast.DefaultConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// evalDistinctSample is BenchmarkEvalDistinct's fixed workload: the first
// 32 launch-feasible configurations of a seed-1 random draw (without
// repetition) from the cap-64 XgemmDirect space, with the evaluator for
// the IS4 shape on the simulated K20m — the configurations a seeded
// random-search tuning run evaluates.
var evalDistinctSample = sync.OnceValues(func() ([]*core.Config, *clblast.GemmEvaluator) {
	const n = 32
	dev, err := opencl.FindDevice("", "K20m")
	if err != nil {
		panic(err)
	}
	sp, err := core.GenerateFlat(clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 64}), core.GenOptions{})
	if err != nil {
		panic(err)
	}
	eval := clblast.NewGemmEvaluator(dev, clblast.CaffeInputSizes()[3], 1)
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	var cfgs []*core.Config
	for len(cfgs) < n {
		idx := rng.Uint64() % sp.Size()
		if seen[idx] {
			continue
		}
		seen[idx] = true
		cfg := sp.At(idx)
		if _, err := eval.Eval(cfg); err == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, eval
})

// BenchmarkEvalDistinct times the evaluation a tuning run pays for: one
// op evaluates the 32 distinct configurations of evalDistinctSample, each
// compiled cold and launched on the process default engine (vm-vec).
// BenchmarkKernelInterpreter times one default configuration, about 28×
// cheaper than a median one; this is the per-evaluation cost behind the
// benchmark's gemm-distinct workload. Reports the p50 and p90
// milliseconds per evaluation beside ns/op.
func BenchmarkEvalDistinct(b *testing.B) {
	benchmarkEvalDistinct(b)
}

// BenchmarkEvalDistinctEngines runs the same sample on both engines, the
// walker against vm-vec on tuning's real workload (one walk op takes
// about ten seconds on a 2-vCPU Xeon). It is not part of the make bench
// suite.
func BenchmarkEvalDistinctEngines(b *testing.B) {
	prev := oclc.DefaultEngine()
	defer oclc.SetDefaultEngine(prev)
	for _, eng := range []oclc.Engine{oclc.EngineWalk, oclc.EngineVMVec} {
		b.Run("engine="+eng.String(), func(b *testing.B) {
			oclc.SetDefaultEngine(eng)
			benchmarkEvalDistinct(b)
		})
	}
}

func benchmarkEvalDistinct(b *testing.B) {
	cfgs, eval := evalDistinctSample()
	var ms []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			oclc.ResetCompileCache()
			start := time.Now()
			if _, err := eval.Eval(cfg); err != nil {
				b.Fatal(err)
			}
			ms = append(ms, float64(time.Since(start))/1e6)
		}
	}
	b.StopTimer()
	oclc.ResetCompileCache()
	sort.Float64s(ms)
	b.ReportMetric(ms[len(ms)/2], "p50-ms/eval")
	b.ReportMetric(ms[len(ms)*9/10], "p90-ms/eval")
}

// BenchmarkExploreParallel measures exploration with a pool of 1-8 cost
// evaluators against one evaluator (Workers 0) on a synthetic 10ms cost
// function (the regime parallel exploration targets: evaluation
// dominates, merging is negligible). The speedup metric is wall-clock
// one-evaluator/pool per sub-bench; 8 workers must clear 2x.
func BenchmarkExploreParallel(b *testing.B) {
	const evals = 32
	params := []*core.Param{core.NewParam("X", core.NewInterval(1, 1024))}
	sp, err := core.GenerateFlat(params, core.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cf := core.CostFunc(func(cfg *core.Config) (core.Cost, error) {
		time.Sleep(10 * time.Millisecond)
		return core.SingleCost(float64(cfg.Int("X"))), nil
	})
	seqStart := time.Now()
	if _, err := core.Explore(sp, search.NewExhaustive(), cf, core.Evaluations(evals),
		core.ExploreOptions{}); err != nil {
		b.Fatal(err)
	}
	seqTime := time.Since(seqStart)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := core.Explore(sp, search.NewExhaustive(), cf, core.Evaluations(evals),
					core.ExploreOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(seqTime.Seconds()/time.Since(start).Seconds(), "speedup-vs-seq")
				b.ReportMetric(float64(evals)/time.Since(start).Seconds(), "evals/s")
			}
		})
	}
}

// BenchmarkExhaustiveSweep measures streaming slab iteration against the
// point-by-point At(i) decode it replaced in the exhaustive technique, on
// the capped XgemmDirect space (ISSUE 10 target: sweep ≥3× at). Both
// sub-benches walk the identical full configuration sequence; the sweep
// amortizes the root-to-leaf descent across each chunk and overlaps the
// next chunk's decode with the consumer.
func BenchmarkExhaustiveSweep(b *testing.B) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 16})
	sp, err := core.GenerateFlat(params, core.GenOptions{})
	if err != nil {
		b.Fatal(err)
	}
	size := sp.Size()
	b.Run("at", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for idx := uint64(0); idx < size; idx++ {
				_ = sp.At(idx)
			}
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw := sp.Sweep(0, core.SweepOptions{Prefetch: true})
			n := uint64(0)
			for {
				chunk := sw.NextChunk(256)
				if chunk == nil {
					break
				}
				n += uint64(len(chunk))
			}
			sw.Close()
			if n != size {
				b.Fatalf("sweep yielded %d configs, want %d", n, size)
			}
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
	})
}

// passThroughEvaluator is the simplest BatchEvaluator: it evaluates each
// configuration of a batch in order on the calling goroutine.
type passThroughEvaluator struct{ cf atf.CostFunction }

func (e passThroughEvaluator) EvaluateBatch(_ context.Context, _ uint64, batch []*atf.Config) ([]atf.Outcome, error) {
	out := make([]atf.Outcome, len(batch))
	for i, cfg := range batch {
		out[i].Cost, out[i].Err = e.cf.Cost(cfg)
	}
	return out, nil
}

// BenchmarkZeroCostTune is the framework-overhead harness of the Kernel
// Tuner comparison (SNIPPETS.md, kernel_tuner_paper): an exhaustive sweep
// of the cap-16 XgemmDirect space (86,128 configurations) with a cost
// function that returns 0, so only the framework works. One op is one
// whole sweep through Tuner.Explore; ns/config and allocs/config divide
// by the configurations evaluated, and evaluated/valid/invalid are the
// harness's E/V/I counts. Sub-benchmarks: one evaluator (workers-1),
// runtime.NumCPU() evaluators (workers-N), a pass-through Evaluator at
// batch size 1 (evaluator-batch1, atfd's path for adaptive techniques)
// and the same with pipelined dispatch (pipelined, atfd's path for
// exhaustive and random search).
func BenchmarkZeroCostTune(b *testing.B) {
	sp, err := atf.GenerateSpace(0, clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: 16})...)
	if err != nil {
		b.Fatal(err)
	}
	zero := atf.CostFunc(func(*atf.Config) (atf.Cost, error) { return atf.Cost{0}, nil })
	for _, tc := range []struct {
		name  string
		tuner atf.Tuner
	}{
		{"workers-1", atf.Tuner{Parallelism: 1}},
		{"workers-N", atf.Tuner{Parallelism: atf.AutoParallelism}},
		{"evaluator-batch1", atf.Tuner{Evaluator: passThroughEvaluator{zero}}},
		{"pipelined", atf.Tuner{Evaluator: passThroughEvaluator{zero}, Pipeline: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *atf.Result
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = tc.tuner.Explore(sp, zero); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if res.Evaluations != sp.Size() || res.Valid != sp.Size() {
				b.Fatalf("evaluated %d (valid %d) of %d configurations", res.Evaluations, res.Valid, sp.Size())
			}
			configs := float64(res.Evaluations) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/configs, "ns/config")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/configs, "allocs/config")
			b.ReportMetric(float64(res.Evaluations), "evaluated")
			b.ReportMetric(float64(res.Valid), "valid")
			b.ReportMetric(float64(res.Evaluations-res.Valid), "invalid")
		})
	}
}

// BenchmarkOclcCompileCache measures the compiled-program cache: a cold
// compile pays the preprocess+lex+parse pipeline, a cached one returns the
// shared immutable Program.
func BenchmarkOclcCompileCache(b *testing.B) {
	defines := map[string]string{"WPT": "4", "LS": "64"}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oclc.ResetCompileCache()
			if _, err := oclc.CompileCached(clblast.SaxpySource, defines); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		oclc.ResetCompileCache()
		if _, err := oclc.CompileCached(clblast.SaxpySource, defines); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := oclc.CompileCached(clblast.SaxpySource, defines); err != nil {
				b.Fatal(err)
			}
		}
		oclc.ResetCompileCache()
	})
}
