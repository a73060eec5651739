// Command atf-tune tunes one of the bundled kernels (saxpy or
// XgemmDirect) on a simulated device and prints the best configuration —
// the command-line face of the paper's Listing 2 workflow.
//
// Usage:
//
//	atf-tune -kernel saxpy -device K20c -n 16777216
//	atf-tune -kernel gemm -device Xeon -m 10 -k 64 -gemmn 500 -technique annealing -evals 500
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"atf"
	"atf/internal/clblast"
	"atf/internal/obs"
	"atf/internal/opencl"
)

func main() {
	kernel := flag.String("kernel", "saxpy", "kernel to tune: saxpy or gemm")
	platform := flag.String("platform", "", "OpenCL platform name substring (empty = any)")
	device := flag.String("device", "K20c", "device name substring")
	n := flag.Int64("n", 1<<22, "saxpy input size")
	m := flag.Int64("m", 10, "gemm M")
	k := flag.Int64("k", 64, "gemm K")
	gemmN := flag.Int64("gemmn", 500, "gemm N")
	cap := flag.Int64("cap", 64, "gemm integer range cap")
	technique := flag.String("technique", "annealing",
		"search technique: exhaustive, annealing, opentuner, random")
	evals := flag.Uint64("evals", 400, "evaluation budget (0 = whole space)")
	timeout := flag.Duration("timeout", 0, "wall-clock abort (0 = none)")
	seed := flag.Int64("seed", 1, "random seed")
	parallelism := flag.Int("parallelism", 1,
		"concurrent cost evaluators (1 = one at a time, -1 = all CPUs)")
	stats := flag.Bool("stats", false,
		"print the instrumentation summary (evaluations, caches, latency histograms) after the run")
	flag.Parse()

	var tech atf.Technique
	switch *technique {
	case "exhaustive":
		tech = atf.Exhaustive()
	case "annealing":
		tech = atf.SimulatedAnnealing()
	case "opentuner":
		tech = atf.OpenTunerSearch()
	case "random":
		tech = atf.RandomSearch()
	default:
		fail(fmt.Errorf("unknown technique %q", *technique))
	}

	var abort atf.AbortCondition
	if *evals > 0 {
		abort = atf.Evaluations(*evals)
	}
	if *timeout > 0 {
		cond := atf.Duration(*timeout)
		if abort != nil {
			abort = atf.AbortOr(abort, cond)
		} else {
			abort = cond
		}
	}
	tuner := atf.Tuner{Technique: tech, Abort: abort, Seed: *seed, CacheCosts: true,
		Parallelism: *parallelism}

	start := time.Now()
	var res *atf.Result
	var err error
	switch *kernel {
	case "saxpy":
		res, err = tuneSaxpy(tuner, *platform, *device, *n)
	case "gemm":
		res, err = tuneGemm(tuner, *device, clblast.GemmShape{M: *m, K: *k, N: *gemmN}, *cap, *seed)
	default:
		err = fmt.Errorf("unknown kernel %q", *kernel)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("kernel:        %s\n", *kernel)
	fmt.Printf("search space:  %d valid configurations (raw product %s)\n",
		res.SpaceSize, res.RawSpaceSize)
	fmt.Printf("evaluations:   %d (%d valid)\n", res.Evaluations, res.Valid)
	fmt.Printf("tuning time:   %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("best config:   %s\n", res.Best)
	fmt.Printf("best cost:     %.3f ms (simulated)\n", res.BestCost.Primary()/1e6)
	if *stats {
		fmt.Println()
		obs.WriteSummary(os.Stdout, obs.Default().Snapshot())
	}
}

func tuneSaxpy(tuner atf.Tuner, platform, device string, n int64) (*atf.Result, error) {
	cf, err := (&atf.OpenCL{
		Platform: platform, Device: device,
		Source: clblast.SaxpySource, Kernel: "saxpy",
		Args: []atf.KernelArg{
			atf.Scalar(int32(n)), atf.RandomScalar(),
			atf.RandomBuffer(int(n)), atf.RandomBuffer(int(n)),
		},
		GlobalSize: func(c *atf.Config) []int64 { return []int64{n / c.Int("WPT")} },
		LocalSize:  func(c *atf.Config) []int64 { return []int64{c.Int("LS")} },
	}).CostFunction()
	if err != nil {
		return nil, err
	}
	wpt := atf.TP("WPT", atf.Interval(1, n), atf.Divides(n))
	ls := atf.TP("LS", atf.Interval(1, n),
		atf.Divides(func(c *atf.Config) int64 { return n / c.Int("WPT") }))
	return tuner.Tune(cf, wpt, ls)
}

func tuneGemm(tuner atf.Tuner, device string, shape clblast.GemmShape, cap, seed int64) (*atf.Result, error) {
	dev, err := opencl.FindDevice("", device)
	if err != nil {
		return nil, err
	}
	eval := clblast.NewGemmEvaluator(dev, shape, seed)
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{
		RangeCap:         cap,
		MaxWorkGroupSize: int64(dev.Desc.MaxWorkGroupSize),
		LocalMemBytes:    int64(dev.Desc.LocalMemBytes),
	})
	return tuner.Tune(eval.CostFunction(), params...)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atf-tune:", err)
	os.Exit(1)
}
