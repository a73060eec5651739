package harness

import (
	"fmt"
	"math"

	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/oclc"
	"atf/internal/opencl"
	"atf/internal/opentuner"
	"atf/internal/search"
)

// Options scales the experiments; the zero value selects the defaults the
// recorded EXPERIMENTS.md numbers were produced with.
type Options struct {
	Seed int64
	// RangeCap bounds the XgemmDirect integer ranges (default 64).
	RangeCap int64
	// ATFEvals is the evaluation budget of ATF's annealing per (IS,
	// device) pair (default 400).
	ATFEvals uint64
	// OpenTunerEvals is the §VI-B baseline budget (default 10000, the
	// paper's number).
	OpenTunerEvals int
	// DevOptEvals bounds the CLTune device-optimization run at 256×256
	// (default 120).
	DevOptEvals int
	Workers     int
	// Parallelism is the number of concurrent cost evaluators per tuning
	// run (Tuner.Parallelism semantics: 0/1 = one evaluator, -1 = NumCPU).
	Parallelism int
	// Engine selects the oclc execution engine for every kernel launch of
	// the run (cmd/atf-experiments -engine). The zero value keeps the
	// process default (the bytecode VM); oclc.EngineWalk is the
	// tree-walking reference interpreter.
	Engine oclc.Engine
}

// explore runs a tuning run with opts.Parallelism cost evaluators, so
// every experiment honors the CLI's -parallelism flag through one seam.
func (o Options) explore(space *core.Space, tech core.Technique, cf core.CostFunction,
	abort core.AbortCondition, eo core.ExploreOptions) (*core.Result, error) {
	eo.Workers = o.Parallelism
	return core.Explore(space, tech, cf, abort, eo)
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RangeCap == 0 {
		o.RangeCap = 64
	}
	if o.ATFEvals == 0 {
		o.ATFEvals = 400
	}
	if o.OpenTunerEvals == 0 {
		o.OpenTunerEvals = 10000
	}
	if o.DevOptEvals == 0 {
		o.DevOptEvals = 120
	}
	if o.Engine != oclc.EngineDefault {
		oclc.SetDefaultEngine(o.Engine)
	}
}

// Fig2Row is one bar pair of Figure 2.
type Fig2Row struct {
	IS                 string
	ATFNs              float64
	CLTuneNs           float64
	OpenTunerNs        float64
	SpeedupVsCLTune    float64
	SpeedupVsOpenTuner float64
	OpenTunerValid     int
	ATFBest            *core.Config
}

// Fig2Result is one side (device) of Figure 2.
type Fig2Result struct {
	Device string
	Rows   []Fig2Row
	// DeviceOptimized is the configuration CLBlast's CLTune setup
	// determined at 256×256 — the fallback the restricted spaces force.
	DeviceOptimized *core.Config
}

// Fig2 reproduces one half of the paper's Figure 2 — the speedup of the
// ATF-tuned XgemmDirect over the CLTune- and OpenTuner-tuned kernel on one
// device, for the four Caffe input sizes.
//
// Baseline mechanics follow §VI exactly:
//   - The CLTune path uses CLBlast's restricted ranges with the
//     global-size divisibility constraints; on every deep-learning size
//     that space is empty, so the kernel falls back to the
//     device-optimized values tuned at the average size 256×256.
//   - The OpenTuner path tunes the raw unconstrained space with a penalty
//     for constraint violations; with a valid fraction around 10^-7 it
//     (almost surely) finds nothing and the kernel falls back to its
//     built-in defaults.
//   - ATF tunes the full constrained space (no artificial range limits,
//     no global-size constraints) with simulated annealing.
func Fig2(deviceName string, opts Options) (*Fig2Result, error) {
	opts.defaults()
	dev, err := opencl.FindDevice("", deviceName)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Device: dev.Name()}

	// The full ATF space is shape-independent (the relaxed variant has no
	// global-size constraints); generate it once and reuse it.
	atfParams := clblast.XgemmDirectParams(clblast.SpaceOptions{
		RangeCap:         opts.RangeCap,
		MaxWorkGroupSize: int64(dev.Desc.MaxWorkGroupSize),
		LocalMemBytes:    int64(dev.Desc.LocalMemBytes),
	})
	space, err := core.GenerateFlat(atfParams, core.GenOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}

	devOpt, err := deviceOptimized(dev, opts)
	if err != nil {
		return nil, err
	}
	res.DeviceOptimized = devOpt

	for _, shape := range clblast.CaffeInputSizes() {
		eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)

		// --- ATF -----------------------------------------------------
		// The annealer warm-starts at the kernel's shipped defaults (a
		// configuration every CLBlast user has) and restarts after runs
		// of rejected moves — standard practitioner moves that the
		// paper's 10-minute budgets subsume.
		atfRes, err := opts.explore(space,
			&search.Annealing{Start: clblast.DefaultConfig(), RestartAfter: 25},
			eval.CostFunction(),
			core.Evaluations(opts.ATFEvals),
			core.ExploreOptions{Seed: opts.Seed, CacheCosts: true})
		if err != nil {
			return nil, err
		}
		if atfRes.Best == nil {
			return nil, fmt.Errorf("harness: ATF found no valid configuration for %s", shape)
		}
		atfNs := atfRes.BestCost.Primary()

		// --- CLTune --------------------------------------------------
		// Restricted space for this shape; empty on all Caffe sizes, so
		// the kernel runs with the device-optimized values.
		cltuneCfg := devOpt
		restricted := clblast.RestrictedParams(shape,
			int64(dev.Desc.MaxWorkGroupSize), int64(dev.Desc.LocalMemBytes))
		rsp, err := core.GenerateFlat(restricted, core.GenOptions{Workers: opts.Workers})
		if err != nil {
			return nil, err
		}
		if rsp.Size() > 0 {
			// On sizes where the restricted space exists, CLTune tunes it.
			r, err := opts.explore(rsp, search.NewAnnealing(), eval.CostFunction(),
				core.Evaluations(minU64(rsp.Size(), opts.ATFEvals)),
				core.ExploreOptions{Seed: opts.Seed, CacheCosts: true})
			if err != nil {
				return nil, err
			}
			if r.Best != nil {
				cltuneCfg = r.Best
			}
		}
		cltuneNs, err := eval.Eval(cltuneCfg)
		if err != nil {
			return nil, fmt.Errorf("harness: CLTune fallback config failed on %s: %w", shape, err)
		}

		// --- OpenTuner -----------------------------------------------
		raw := &opentuner.RawTuner{
			Params: atfParams,
			Validate: func(cfg *core.Config) bool {
				return clblast.ValidateConfig(cfg, atfParams)
			},
		}
		otRun, err := raw.Tune(eval.CostFunction(), opts.OpenTunerEvals, opts.Seed)
		if err != nil {
			return nil, err
		}
		otCfg := otRun.Best
		if otCfg == nil {
			otCfg = clblast.DefaultConfig() // §VI-B: fall back to defaults
		}
		otNs, err := eval.Eval(otCfg)
		if err != nil {
			return nil, fmt.Errorf("harness: OpenTuner fallback config failed on %s: %w", shape, err)
		}

		res.Rows = append(res.Rows, Fig2Row{
			IS:                 shape.Name,
			ATFNs:              atfNs,
			CLTuneNs:           cltuneNs,
			OpenTunerNs:        otNs,
			SpeedupVsCLTune:    cltuneNs / atfNs,
			SpeedupVsOpenTuner: otNs / atfNs,
			OpenTunerValid:     otRun.ValidEvals,
			ATFBest:            atfRes.Best,
		})
	}
	return res, nil
}

// deviceOptimized reproduces CLBlast's stock tuning: CLTune's annealing
// over the restricted ranges at the average input size 256×256 — the
// values the kernel falls back to when the per-size space is empty.
func deviceOptimized(dev *opencl.Device, opts Options) (*core.Config, error) {
	shape := clblast.GemmShape{Name: "avg256", M: 256, N: 256, K: 256}
	params := clblast.RestrictedParams(shape,
		int64(dev.Desc.MaxWorkGroupSize), int64(dev.Desc.LocalMemBytes))
	sp, err := core.GenerateFlat(params, core.GenOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	if sp.Size() == 0 {
		return nil, fmt.Errorf("harness: restricted space empty at 256x256?")
	}
	eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)
	r, err := opts.explore(sp, search.NewAnnealing(), eval.CostFunction(),
		core.Evaluations(minU64(sp.Size(), uint64(opts.DevOptEvals))),
		core.ExploreOptions{Seed: opts.Seed, CacheCosts: true})
	if err != nil {
		return nil, err
	}
	if r.Best == nil {
		return nil, fmt.Errorf("harness: device optimization found nothing")
	}
	return r.Best, nil
}

// Fig2Table renders a Fig2Result.
func Fig2Table(r *Fig2Result, id string) *Table {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("Fig. 2 — speedup of ATF-tuned XgemmDirect on %s", r.Device),
		Columns: []string{"IS", "ATF", "CLTune", "OpenTuner",
			"speedup vs CLTune", "speedup vs OpenTuner"},
	}
	minCL, maxCL := math.Inf(1), math.Inf(-1)
	minOT, maxOT := math.Inf(1), math.Inf(-1)
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.IS, ns2ms(row.ATFNs), ns2ms(row.CLTuneNs), ns2ms(row.OpenTunerNs),
			f2(row.SpeedupVsCLTune) + "x", f2(row.SpeedupVsOpenTuner) + "x",
		})
		minCL = math.Min(minCL, row.SpeedupVsCLTune)
		maxCL = math.Max(maxCL, row.SpeedupVsCLTune)
		minOT = math.Min(minOT, row.SpeedupVsOpenTuner)
		maxOT = math.Max(maxOT, row.SpeedupVsOpenTuner)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speedup vs CLTune ranges %.2fx–%.2fx; vs OpenTuner %.2fx–%.2fx",
			minCL, maxCL, minOT, maxOT),
		fmt.Sprintf("CLTune fallback (device-optimized at 256x256): %s", r.DeviceOptimized))
	return t
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// DeviceOptimized exposes the CLBlast-style device optimization (CLTune
// annealing over the restricted ranges at 256×256) for diagnostics and
// the E7 experiment.
func DeviceOptimized(dev *opencl.Device, opts Options) (*core.Config, error) {
	opts.defaults()
	return deviceOptimized(dev, opts)
}
