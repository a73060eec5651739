package main

import (
	"fmt"
	"path/filepath"
	"time"

	"atf"
	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/obs"
	"atf/internal/opencl"
)

const (
	// gemmBudget is the evaluation budget of one gemm-distinct tuning
	// run: enough distinct configurations that the mean cost of an
	// evaluation varies little from seed to seed.
	gemmBudget = 150
	// verifyTol bounds the largest absolute error of the tuned kernel's
	// output against the host reference GEMM.
	verifyTol = 1e-3
)

// The gemm cost function of every workload: XgemmDirect on the simulated
// K20m at the default IS4 shape, with fixed input data.
var gemmShape = clblast.GemmShape{M: 10, K: 64, N: 500}

const (
	gemmDevice   = "K20m"
	gemmDataSeed = 1
)

// gemmSpec tunes the cap-64 XgemmDirect space (2,876,260 configurations).
func gemmSpec(name, technique string, seed int64, evals uint64) *atf.Spec {
	return &atf.Spec{
		Name: name,
		Cost: atf.CostSpec{Kind: "gemm", Device: gemmDevice, M: gemmShape.M, K: gemmShape.K,
			GemmN: gemmShape.N, RangeCap: 64, Seed: gemmDataSeed},
		Technique: atf.TechniqueSpec{Kind: technique},
		Abort:     atf.AbortSpec{Evaluations: evals},
		Seed:      seed,
	}
}

// verifyBest runs best functionally and compares the output with the
// host reference GEMM.
func verifyBest(best *atf.Config) error {
	if best == nil {
		return fmt.Errorf("no best configuration")
	}
	dev, err := opencl.FindDevice("", gemmDevice)
	if err != nil {
		return err
	}
	maxErr, err := clblast.NewGemmEvaluator(dev, gemmShape, gemmDataSeed).Verify(best)
	if err != nil {
		return fmt.Errorf("verify %s: %w", best.Key(), err)
	}
	if maxErr > verifyTol {
		return fmt.Errorf("verify %s: max abs error %g > %g", best.Key(), maxErr, verifyTol)
	}
	return nil
}

// libraryRun is one repetition of a library workload: build the spec and
// generate its space (set-up), then one Tuner.Explore (measured).
type libraryRun struct {
	setup, measured time.Duration
	space           *atf.Space
	build           *atf.SpecBuild
	res             *atf.Result
	layers          map[string]float64
	// pieces cuts the measured Explore into pieces of a fixed number of
	// evaluations and holds each piece's wall time.
	pieces *pieceClock
}

// pieceClock records the wall time of every run of `every` consecutive
// cost-function calls of a sequential Explore. Repetitions of one seed
// evaluate the same configurations in the same order, so piece i is the
// same work in each of them.
type pieceClock struct {
	every, n int
	last     time.Time
	seconds  []float64
}

func (p *pieceClock) tick() {
	p.n++
	if p.n%p.every == 0 {
		now := time.Now()
		p.seconds = append(p.seconds, now.Sub(p.last).Seconds())
		p.last = now
	}
}

// runLibrary runs spec with cost, or with the spec's own clblast cost
// function when cost is nil, timing the exploration in pieces of every
// evaluations. When traced it records spans around the
// calls into core (space generation, exploration), search (technique
// calls) and the cost function, and derives the per-layer metrics.
func runLibrary(rep repConfig, workload string, spec *atf.Spec, cost atf.CostFunction, every int) (*libraryRun, error) {
	var log *spanLog
	if rep.Traced {
		log = newSpanLog()
	}
	before := obs.Default().Snapshot()

	t0 := time.Now()
	root := log.start("setup", "", 0)
	b, err := spec.Build()
	if err != nil {
		return nil, err
	}
	gen := log.start("core.generate", "", root.id())
	space, err := b.Tuner.GenerateSpace(atf.G(b.Params...))
	gen.end()
	root.end()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	cf := cost
	if cf == nil {
		cf = b.Cost
	}
	tuner := b.Tuner
	explore := log.start("core.explore", "", 0)
	var next, report, zero *rollup
	var clblastMs []float64
	invalid := 0
	if log != nil {
		next = log.rollup("search.next", explore.id())
		report = log.rollup("search.report", explore.id())
		tuner.Technique = traceTechnique(tuner.Technique, next, report)
		if cost == nil {
			// The clblast evaluator: one span per evaluation. The
			// sequential engine makes one call at a time, so observe
			// needs no lock.
			evals := 0
			cf = traceCost(cf, func(s time.Time, d time.Duration, err error) {
				log.record("clblast.eval", fmt.Sprint(evals), explore.id(), s, d)
				clblastMs = append(clblastMs, float64(d)/1e6)
				if err != nil {
					invalid++
				}
				evals++
			})
		} else {
			zero = log.rollup("cost.zero", explore.id())
			cf = traceCost(cf, func(_ time.Time, d time.Duration, _ error) { zero.observe(d) })
		}
	}
	pieces := &pieceClock{every: every}
	cf = countCost(cf, pieces.tick)
	t1 := time.Now()
	pieces.last = t1
	res, err := tuner.Explore(space, cf)
	measured := time.Since(t1)
	explore.end()
	if err != nil {
		return nil, err
	}
	lr := &libraryRun{setup: setup, measured: measured, space: space, build: b, res: res, pieces: pieces}
	if log == nil {
		return lr, nil
	}

	d := delta{before, obs.Default().Snapshot()}
	recs := log.records()
	l := map[string]float64{}
	var exploreRec spanRec
	var clblastRecs []spanRec
	for _, r := range recs {
		switch r.Name {
		case "core.generate":
			l["core.generate_s"] = r.dur().Seconds()
		case "core.explore":
			exploreRec = r
		case "clblast.eval":
			clblastRecs = append(clblastRecs, r)
		}
	}
	evals := float64(res.Evaluations)
	self := exploreRec.dur() - covered(exploreRec, clblastRecs) -
		time.Duration(next.ns.Load()+report.ns.Load())
	if zero != nil {
		self -= time.Duration(zero.ns.Load())
	}
	l["core.explore_self_us_per_eval"] = ratio(float64(self)/1e3, evals)
	l["core.sweep_configs"] = d.counter("atf_space_iter_configs_total")
	l["core.sweep_descents"] = d.counter("atf_space_iter_descents_total")
	l["core.cost_cache_hits"] = d.counter("atf_evaluations_cached_total")
	l["search.next_ns_per_config"] = ratio(float64(next.ns.Load()), float64(next.n.Load()))
	l["search.report_ns_per_eval"] = ratio(float64(report.ns.Load()), float64(report.n.Load()))
	wall := (setup + measured).Seconds()
	if len(clblastMs) > 0 {
		l["clblast.eval_ms_p50"] = quantile(clblastMs, 0.5)
		l["clblast.eval_ms_p90"] = quantile(clblastMs, 0.9)
		l["clblast.eval_share"] = sum(clblastMs) / 1e3 / wall
		l["clblast.invalid_evals"] = float64(invalid)
	}
	kernelLayers(l, d, wall, evals)
	lr.layers = l
	path := filepath.Join(rep.Work, "spans", fmt.Sprintf("%s-seed%d-rep%d.jsonl", workload, rep.Seed, rep.Index))
	return lr, log.write(path)
}

// kernelLayers fills the oclc and opencl metrics from the deltas of
// their own histograms and counters over a phase of wall seconds in which
// evals evaluations were committed.
func kernelLayers(l map[string]float64, d delta, wall, evals float64) {
	compile := d.hist("atf_oclc_compile_seconds")
	enqueue := d.hist("atf_opencl_enqueue_seconds")
	hits, misses := d.counter("atf_oclc_compile_cache_hits_total"), d.counter("atf_oclc_compile_cache_misses_total")
	l["oclc.compile_ms_p50"] = compile.Quantile(0.5) * 1e3
	l["oclc.compile_share"] = ratio(compile.Sum, wall)
	l["oclc.compile_cache_hit_ratio"] = ratio(hits, hits+misses)
	l["oclc.vmvec_instructions_per_eval"] = ratio(d.counter("atf_oclc_vm_vec_instructions_total"), evals)
	l["oclc.vmvec_fallbacks_per_eval"] = ratio(d.counter("atf_oclc_vm_vec_fallbacks_total"), evals)
	l["opencl.enqueue_ms_p50"] = enqueue.Quantile(0.5) * 1e3
	l["opencl.enqueue_share"] = ratio(enqueue.Sum, wall)
}

// runGemmDistinct is one cold tuning run of random search over distinct
// XgemmDirect configurations: kernel compile, vm-vec launch and the
// performance model do nearly all the work.
func runGemmDistinct(rep repConfig) (*repResult, error) {
	spec := gemmSpec("gemm-distinct", "random", rep.Seed, gemmBudget)
	lr, err := runLibrary(rep, "gemm-distinct", spec, nil, 1)
	if err != nil {
		return nil, err
	}
	out := libraryResult(lr)
	if err := checkGemmRun(lr.res, gemmBudget); err != nil {
		out.fail("%v", err)
	}
	return out, nil
}

// checkGemmRun checks one gemm-distinct result: the whole budget was
// evaluated and the best configuration computes the right product.
func checkGemmRun(res *atf.Result, budget uint64) error {
	if res.Evaluations != budget {
		return fmt.Errorf("evaluated %d configurations, budget %d", res.Evaluations, budget)
	}
	return verifyBest(res.Best)
}

// zeroCost is the framework-overhead harness's cost function: every
// configuration costs 0, so only the framework does work.
var zeroCost = core.CostFunc(func(*core.Config) (core.Cost, error) { return core.SingleCost(0), nil })

// sweepPiece is the number of evaluations in one timed piece of
// overhead-sweep: about 15 ms of work, so that every piece has a good
// chance to run in a stretch when the machine is quiet.
const sweepPiece = 1 << 14

// runOverheadSweep is one exhaustive sweep of the whole cap-64
// XgemmDirect space with the zero cost function. The space does not
// depend on the seed.
func runOverheadSweep(rep repConfig) (*repResult, error) {
	spec := gemmSpec("overhead-sweep", "exhaustive", rep.Seed, 0)
	noCache := false
	spec.CacheCosts = &noCache // no memoization of a zero-cost function: measure the framework
	lr, err := runLibrary(rep, "overhead-sweep", spec, zeroCost, sweepPiece)
	if err != nil {
		return nil, err
	}
	out := libraryResult(lr)
	// An independent count of the valid configurations, outside the
	// timed phases.
	want, _, err := core.CountGroup(atf.G(lr.build.Params...), core.GenOptions{})
	if err != nil {
		return nil, err
	}
	if err := checkSweep(lr.res, want); err != nil {
		out.fail("%v", err)
	}
	return out, nil
}

// checkSweep checks the harness's E/V/I: every configuration of the space
// was evaluated (E), all of them valid (V), none invalid (I), and the
// space holds want configurations.
func checkSweep(res *atf.Result, want uint64) error {
	if res.Evaluations != want || res.Valid != want || res.SpaceSize != want || res.Evaluations-res.Valid != 0 {
		return fmt.Errorf("E/V/I = %d/%d/%d over a space of %d, want %d/%d/0",
			res.Evaluations, res.Valid, res.Evaluations-res.Valid, res.SpaceSize, want, want)
	}
	return nil
}

func libraryResult(lr *libraryRun) *repResult {
	res := lr.res
	best := "none"
	if res.Best != nil {
		best = res.Best.Key()
	}
	return &repResult{
		SetupS:     lr.setup.Seconds(),
		MeasuredS:  lr.measured.Seconds(),
		Evals:      res.Evaluations,
		RunsMs:     []float64{float64(lr.measured) / 1e6},
		Pieces:     lr.pieces.seconds,
		PieceEvals: uint64(len(lr.pieces.seconds) * lr.pieces.every),
		Attempted:  1,
		PeakRSSMB:  peakRSSMB(),
		Result: fmt.Sprintf("best=%s cost=%v evaluations=%d valid=%d invalid=%d",
			best, res.BestCost, res.Evaluations, res.Valid, res.Evaluations-res.Valid),
		Layers: lr.layers,
	}
}
