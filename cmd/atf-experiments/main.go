// Command atf-experiments regenerates the paper's evaluation artifacts
// (DESIGN.md §4, experiments E1–E13) on the simulated devices and prints
// one table per experiment. EXPERIMENTS.md records a full run.
//
// Usage:
//
//	atf-experiments                     # run everything with defaults
//	atf-experiments -exp fig2cpu        # one experiment
//	atf-experiments -cap 128 -markdown  # bigger ranges, markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"atf/internal/harness"
	"atf/internal/obs"
	"atf/internal/oclc"
)

// experiments names every -exp value; "all" runs each of them.
const experiments = "all, fig2cpu, fig2gpu, spacegen, sizes, relaxed, otvalid, defaults, groups, gentime, vec, lazyspace, sweep"

func main() {
	exp := flag.String("exp", "all", "experiment: "+experiments)
	cap := flag.Int64("cap", 64, "XgemmDirect integer range cap")
	sizeCaps := flag.String("sizecaps", "16,64,256",
		"comma-separated range caps for the E4 size census (1024 reproduces the paper's 2^10 setting; allow a few minutes)")
	atfEvals := flag.Uint64("atf-evals", 400, "ATF annealing evaluations per tuning run")
	otEvals := flag.Int("ot-evals", 10000, "OpenTuner baseline evaluations (paper: 10000)")
	devOptEvals := flag.Int("devopt-evals", 120, "CLTune device-optimization evaluations at 256x256")
	seed := flag.Int64("seed", 1, "random seed")
	parallelism := flag.Int("parallelism", 1,
		"concurrent cost evaluators per tuning run (1 = one at a time, -1 = all CPUs)")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	stats := flag.Bool("stats", false,
		"print the instrumentation summary (evaluations, caches, latency histograms) after the experiments")
	memo := flag.String("memo", "both",
		"gentime memoization ablation: on, off, or both (one table row per mode)")
	engine := flag.String("engine", "",
		"oclc execution engine for kernel launches: vm-vec (default) or walk (the reference interpreter)")
	interpEvals := flag.Int("interp-evals", 20, "timed cost evaluations per engine in the E12 ablation")
	flag.Parse()

	if !slices.Contains(strings.Split(experiments, ", "), *exp) {
		fmt.Fprintf(os.Stderr, "atf-experiments: unknown experiment %q (want one of %s)\n", *exp, experiments)
		os.Exit(2)
	}
	eng, err := oclc.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atf-experiments:", err)
		os.Exit(2)
	}

	opts := harness.Options{
		Seed:           *seed,
		RangeCap:       *cap,
		ATFEvals:       *atfEvals,
		OpenTunerEvals: *otEvals,
		DevOptEvals:    *devOptEvals,
		Parallelism:    *parallelism,
		Engine:         eng,
	}

	emit := func(t *harness.Table) {
		if *markdown {
			t.Markdown(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "atf-experiments:", err)
		os.Exit(1)
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig2cpu") {
		r, err := harness.Fig2("Xeon", opts)
		if err != nil {
			fail(err)
		}
		emit(harness.Fig2Table(r, "E1 (Fig. 2 left, CPU)"))
	}
	if want("fig2gpu") {
		r, err := harness.Fig2("K20m", opts)
		if err != nil {
			fail(err)
		}
		emit(harness.Fig2Table(r, "E2 (Fig. 2 right, GPU)"))
	}
	if want("spacegen") {
		r, err := harness.SpaceGen(32, 0, 0)
		if err != nil {
			fail(err)
		}
		emit(harness.SpaceGenTable(r))
	}
	if want("sizes") {
		var rs []*harness.SizesResult
		for _, s := range strings.Split(*sizeCaps, ",") {
			var c int64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &c); err != nil {
				fail(fmt.Errorf("bad -sizecaps entry %q", s))
			}
			r, err := harness.Sizes(c, 0)
			if err != nil {
				fail(err)
			}
			rs = append(rs, r)
		}
		emit(harness.SizesTable(rs))
	}
	if want("relaxed") {
		for _, dev := range []string{"Xeon", "K20m"} {
			rs, err := harness.Relaxed(dev, opts)
			if err != nil {
				fail(err)
			}
			emit(harness.RelaxedTable(rs))
		}
	}
	if want("otvalid") {
		rs, err := harness.Validity(opts)
		if err != nil {
			fail(err)
		}
		emit(harness.ValidityTable(rs))
	}
	if want("defaults") {
		for _, dev := range []string{"Xeon", "K20m"} {
			rs, err := harness.Defaults(dev, opts)
			if err != nil {
				fail(err)
			}
			emit(harness.DefaultsTable(rs))
		}
	}
	if want("groups") {
		// 4 groups of 3 chained parameters over [1,512]: large enough to
		// time, small enough that the cross product stays within uint64.
		r, err := harness.Groups(4, 512, 0)
		if err != nil {
			fail(err)
		}
		emit(harness.GroupsTable(r))
	}
	if want("gentime") {
		var rs []*harness.GenTimeResult
		for _, kernel := range []string{"saxpy", "gemm"} {
			for _, memoize := range memoModes(*memo) {
				r, err := harness.GenTime(kernel, *cap, 0, memoize)
				if err != nil {
					fail(err)
				}
				rs = append(rs, r)
			}
		}
		emit(harness.GenTimeTable(rs))
	}
	if want("lazyspace") {
		// E13: eager vs lazy construction across range caps. The uncapped
		// 2^10 row runs lazy-only — its raw product (>10^19) has no
		// materializable eager counterpart.
		var rs []*harness.LazySpaceResult
		for _, c := range []int64{16, 64, 256, 1024} {
			modes := []bool{false, true}
			if c >= 1024 {
				modes = []bool{true}
			}
			for _, lazy := range modes {
				r, err := harness.LazySpace(c, lazy, 200, 0)
				if err != nil {
					fail(err)
				}
				rs = append(rs, r)
			}
		}
		emit(harness.LazySpaceTable(rs))
	}
	if want("sweep") {
		// E15: streaming sweep vs At(i) full walks, plus the census
		// warm-start on the lazy row.
		var rs []*harness.SweepResult
		for _, cell := range []struct {
			cap  int64
			lazy bool
		}{{16, false}, {32, false}, {1024, true}} {
			r, err := harness.SweepWalk(cell.cap, cell.lazy, 0)
			if err != nil {
				fail(err)
			}
			rs = append(rs, r)
		}
		emit(harness.SweepTable(rs))
	}
	if want("vec") {
		r, err := harness.VecAblate("K20m", *interpEvals, opts)
		if err != nil {
			fail(err)
		}
		emit(harness.VecAblateTable(r))
	}
	if *stats {
		obs.WriteSummary(os.Stdout, obs.Default().Snapshot())
	}
}

// memoModes translates the -memo flag into the gentime ablation axis.
func memoModes(mode string) []bool {
	switch mode {
	case "on":
		return []bool{true}
	case "off":
		return []bool{false}
	default:
		return []bool{false, true}
	}
}
