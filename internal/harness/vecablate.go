package harness

import (
	"fmt"
	"strings"
	"time"

	"atf/internal/clblast"
	"atf/internal/obs"
	"atf/internal/oclc"
	"atf/internal/opencl"
)

// VecAblateRow is one kernel × engine measurement in the E12 ablation.
type VecAblateRow struct {
	Kernel    string
	Engine    string
	NsPerEval float64
	Speedup   float64 // vs the walker reference on the same kernel
}

// VecAblateResult is experiment E12: the lockstep-vectorization ablation.
// Two cost-evaluation workloads — a bandwidth-style saxpy launch and the
// XgemmDirect evaluation every tuning run is made of — are timed under the
// tree-walking reference and the vectorized VM.
// The lanes-active histogram delta over the vm-vec runs records how much
// lockstep width the vectorizer actually sustained (scalar fallbacks and
// partial re-gathers show up as observations below the group size).
type VecAblateResult struct {
	Device string
	IS     string
	Evals  int
	Rows   []*VecAblateRow

	// Lanes-active distribution (atf_oclc_vm_vec_lanes_active) accumulated
	// across this experiment's vm-vec evaluations only. LanesCounts[i] is
	// the number of vector segments entered with ≤ LanesBounds[i] live
	// lanes; the final entry is the overflow bucket.
	LanesBounds []float64
	LanesCounts []uint64
	LanesMean   float64
}

// saxpySrc is the E12 saxpy workload: WPT-strided with a tail guard, so it
// carries one work-item-ID-dependent branch (the guard) per element on top
// of an otherwise uniform loop.
const saxpySrc = `__kernel void saxpy(const int n, const float a,
    __global float* x, __global float* y) {
  const int g = get_global_id(0);
  for (int w = 0; w < WPT; w++) {
    const int i = g*WPT + w;
    if (i < n) { y[i] = a*x[i] + y[i]; }
  }
}`

// VecAblate runs E12 on one device. evals is the number of timed cost
// evaluations per kernel × engine (default 20). The process-default engine
// is restored before returning.
func VecAblate(deviceName string, evals int, opts Options) (*VecAblateResult, error) {
	opts.defaults()
	if evals <= 0 {
		evals = 20
	}
	dev, err := opencl.FindDevice("", deviceName)
	if err != nil {
		return nil, err
	}
	shape := clblast.CaffeInputSizes()[1]
	gemmCfg := clblast.DefaultConfig()

	// saxpy: one shared compiled program; a launch is the cost evaluation.
	const saxpyN = 1 << 16
	const saxpyWPT = 4
	saxpyProg, err := oclc.Compile(saxpySrc, map[string]string{"WPT": fmt.Sprint(saxpyWPT)})
	if err != nil {
		return nil, err
	}
	x := oclc.NewGlobalMemory(1, oclc.KFloat, 4, saxpyN)
	y := oclc.NewGlobalMemory(2, oclc.KFloat, 4, saxpyN)
	for i := 0; i < saxpyN; i++ {
		x.Data[i] = float64(i % 97)
		y.Data[i] = float64(i % 89)
	}
	saxpyArgs := []oclc.Arg{
		oclc.IntArg(saxpyN), oclc.FloatArg(2.0),
		oclc.BufArg(x), oclc.BufArg(y),
	}
	saxpyCfg := oclc.NDRange1D(saxpyN/saxpyWPT, 64)

	kernels := []struct {
		name string
		mk   func() func() error // fresh evaluator for one engine
	}{
		{"saxpy", func() func() error {
			return func() error {
				_, err := saxpyProg.Launch("saxpy", saxpyArgs, saxpyCfg, oclc.ExecOptions{})
				return err
			}
		}},
		{"XgemmDirect", func() func() error {
			eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)
			return func() error {
				_, err := eval.Eval(gemmCfg)
				return err
			}
		}},
	}
	engines := []oclc.Engine{oclc.EngineWalk, oclc.EngineVMVec}

	prev := oclc.DefaultEngine()
	defer oclc.SetDefaultEngine(prev)

	res := &VecAblateResult{Device: dev.Name(), IS: shape.String(), Evals: evals}
	before := obs.Default().Snapshot().Histogram("atf_oclc_vm_vec_lanes_active")
	for _, k := range kernels {
		var walkNs float64
		for _, eng := range engines {
			oclc.SetDefaultEngine(eng)
			run := k.mk()
			// Warm up: the first eval pays preprocess/parse/lower once.
			if err := run(); err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < evals; i++ {
				if err := run(); err != nil {
					return nil, err
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(evals)
			if eng == oclc.EngineWalk {
				walkNs = ns
			}
			res.Rows = append(res.Rows, &VecAblateRow{
				Kernel:    k.name,
				Engine:    eng.String(),
				NsPerEval: ns,
				Speedup:   walkNs / ns,
			})
		}
	}
	after := obs.Default().Snapshot().Histogram("atf_oclc_vm_vec_lanes_active")

	res.LanesBounds = after.Bounds
	res.LanesCounts = make([]uint64, len(after.Counts))
	var n uint64
	var sum float64
	for i := range after.Counts {
		var prev uint64
		if i < len(before.Counts) {
			prev = before.Counts[i]
		}
		res.LanesCounts[i] = after.Counts[i] - prev
		n += res.LanesCounts[i]
	}
	sum = after.Sum - before.Sum
	if n > 0 {
		res.LanesMean = sum / float64(n)
	}
	return res, nil
}

// lanesDistribution renders the non-empty buckets of the lanes-active
// delta as "≤b:count" pairs.
func lanesDistribution(r *VecAblateResult) string {
	var parts []string
	for i, c := range r.LanesCounts {
		if c == 0 {
			continue
		}
		label := "+Inf"
		if i < len(r.LanesBounds) {
			label = fmt.Sprintf("<=%g", r.LanesBounds[i])
		}
		parts = append(parts, fmt.Sprintf("%s:%d", label, c))
	}
	if len(parts) == 0 {
		return "no vector segments recorded"
	}
	return strings.Join(parts, "  ")
}

// VecAblateTable renders E12.
func VecAblateTable(r *VecAblateResult) *Table {
	t := &Table{
		ID: "E12",
		Title: fmt.Sprintf("Lockstep-vectorization ablation on %s, %s (%d evals/kernel/engine)",
			r.Device, r.IS, r.Evals),
		Columns: []string{"kernel", "engine", "ms/eval", "speedup vs walk"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Kernel,
			row.Engine,
			fmt.Sprintf("%.3f", row.NsPerEval/1e6),
			fmt.Sprintf("%.2fx", row.Speedup),
		})
	}
	t.Notes = append(t.Notes,
		"walk = tree-walking reference; vm-vec = lockstep work-group vectorization with scalar fallback on divergence",
		fmt.Sprintf("lanes-active per vector segment during vm-vec evals: mean %.1f, distribution %s",
			r.LanesMean, lanesDistribution(r)))
	return t
}
