// Command perfbench is the repository benchmark: it measures time to a
// tuned result through the public API on three seeded workloads, checks
// that every result is correct, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as a JSON object on its last
// line. README.md in this directory describes the workloads, the metrics
// and what each per-layer metric is expected to move.
//
// Every repetition runs in a fresh child process, because the compiled
// kernel cache and the metrics registry are process-global: a second
// repetition in the same process would start warm.
//
// Usage, from the root of the repository:
//
//	sh perfbench/run.sh --workload gemm-distinct --seed 1 --seconds 16 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A workload runs one cold repetition in the current process. Its
// measured phase does a fixed amount of work, which takes about
// repSeconds on an unloaded two-CPU machine; a run of --seconds makes
// seconds/repSeconds repetitions. The number of repetitions does not
// depend on how fast they ran, so neither does a statistic over them.
type workload struct {
	run        func(rep repConfig) (*repResult, error)
	repSeconds int
}

var workloads = map[string]workload{
	"gemm-distinct":  {runGemmDistinct, 4},
	"overhead-sweep": {runOverheadSweep, 3},
	"atfd-warm":      {runAtfdWarm, 5},
}

// repConfig is what the parent passes a child repetition.
type repConfig struct {
	Seed   int64
	Index  int
	Traced bool
	Work   string // writable directory inside the checkout
}

// repResult is what a child repetition reports back on its last stdout
// line.
type repResult struct {
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`
	MeasuredS float64 `json:"measured_s"`
	// Evals counts evaluations committed in the measured phase.
	Evals uint64 `json:"evals"`
	// RunsMs holds the time to a tuned result of every tuning run (library
	// workloads) or session (atfd-warm) of the measured phase.
	RunsMs []float64 `json:"runs_ms"`
	// Pieces holds the wall time in seconds of each piece of a library
	// workload's measured phase, PieceEvals evaluations in all; every
	// repetition of a seed cuts the same work into the same pieces.
	Pieces     []float64 `json:"pieces,omitempty"`
	PieceEvals uint64    `json:"piece_evals,omitempty"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Failures   []string  `json:"failures,omitempty"`
	// PeakRSSMB is the process's peak resident set size over the whole
	// repetition, which does a fixed amount of work.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Result fingerprints what the repetition computed (best
	// configurations, costs, evaluation counts). Repetitions of one seed,
	// traced or not, must produce the same one.
	Result string             `json:"result"`
	Layers map[string]float64 `json:"layers,omitempty"`

	index int // repetition number, set by the parent
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, with their units. The
// median and 95th percentile of the time to a tuned result (run_ms) are
// printed too but not listed: a library repetition is one tuning run of
// fixed size, and atfd-warm's closed loop holds a fixed number of
// sessions in flight, so either one is evals_per_s again, seen through
// fewer or noisier samples.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"evals_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, with their units, grouped by
// the module they describe (README.md gives each one's definition).
var perLayer = []struct{ name, unit string }{
	{"core.generate_s", "s"},
	{"core.explore_self_us_per_eval", "us"},
	{"core.sweep_configs", "count"},
	{"core.sweep_descents", "count"},
	{"core.cost_cache_hits", "count"},
	{"search.next_ns_per_config", "ns"},
	{"search.report_ns_per_eval", "ns"},
	{"clblast.eval_ms_p50", "ms"},
	{"clblast.eval_ms_p90", "ms"},
	{"clblast.eval_share", "ratio"},
	{"clblast.invalid_evals", "count"},
	{"oclc.compile_ms_p50", "ms"},
	{"oclc.compile_share", "ratio"},
	{"oclc.compile_cache_hit_ratio", "ratio"},
	{"oclc.vmvec_instructions_per_eval", "count"},
	{"oclc.vmvec_fallbacks_per_eval", "count"},
	{"opencl.enqueue_ms_p50", "ms"},
	{"opencl.enqueue_share", "ratio"},
	{"server.create_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.cost_cache_hit_ratio", "ratio"},
	{"server.space_cache_hit_ratio", "ratio"},
	{"dist.evaluate_batch_us_p50", "us"},
	{"dist.evaluate_share", "ratio"},
	{"dist.batches_local", "count"},
	{"trace.overhead_pct", "%"},
}

func main() {
	name := flag.String("workload", "", "workload: gemm-distinct, overhead-sweep or atfd-warm")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 16, "how long the run measures")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	work := flag.String("work", ".bench_build", "directory for journals and span files")
	child := flag.Int("child", -1, "run one repetition in this process, as child number N (used by the parent)")
	traced := flag.Bool("traced", false, "with -child: record spans")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *child >= 0 {
		res, err := w.run(repConfig{Seed: *seed, Index: *child, Traced: *traced, Work: *work})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.Traced = *traced
		out, _ := json.Marshal(res) // plain structs and float64s: cannot fail
		fmt.Println(string(out))
		return
	}
	os.Exit(parent(*name, *seed, max(*seconds/w.repSeconds, 1), *trace == 1, *work))
}

// parent runs nReps cold repetitions of seed in child processes, checks
// that they agree, and prints the metrics. It returns the exit code.
func parent(name string, seed int64, nReps int, trace bool, work string) int {
	// Untraced runs need several repetitions for a median set-up time and
	// a quiet time for each piece of work; traced runs alternate untraced
	// and traced repetitions, two of each at least, so the tracing
	// overhead and the traced results can be compared with the untraced
	// ones.
	minReps := 3
	if trace {
		minReps = 4
	}
	nReps = max(nReps, minReps)
	if trace {
		nReps += nReps % 2
	}
	if err := os.MkdirAll(filepath.Join(work, "spans"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var reps []*repResult
	attempted, failed, crashed := 0, 0, 0
	var failures []string
	// The wall-clock caps keep a run inside its time limit when
	// repetitions take far longer than expected: no repetition starts
	// after deadline, and one still running 170s after the start is
	// killed.
	start := time.Now()
	deadline := start.Add(90 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(170*time.Second))
	defer cancel()
	for i := 0; i < nReps && crashed < minReps && time.Now().Before(deadline); i++ {
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-work", work,
			"-child", fmt.Sprint(i), fmt.Sprintf("-traced=%v", trace && i%2 == 1)}
		res, err := runChild(ctx, self, args)
		if err != nil {
			// A repetition that crashed is one failed operation; keep
			// measuring so the output still says how often it happens.
			attempted++
			failed++
			crashed++
			failures = append(failures, fmt.Sprintf("repetition %d: %v", i, err))
			continue
		}
		res.index = i
		reps = append(reps, res)
		attempted += res.Attempted
		failed += res.Failed
		for _, f := range res.Failures {
			failures = append(failures, fmt.Sprintf("repetition %d: %s", i, f))
		}
	}
	for _, f := range disagreements(reps) {
		failed++
		failures = append(failures, f)
	}
	failed = min(failed, attempted)

	metrics := map[string]metric{}
	var notes []string
	if trace {
		// Each traced repetition is compared with the untraced one
		// before it, which ran the same seed.
		var tracedReps []*repResult
		var overhead []float64
		for i, r := range reps {
			if !r.Traced {
				continue
			}
			tracedReps = append(tracedReps, r)
			if i > 0 && reps[i-1].index == r.index-1 {
				overhead = append(overhead, 100*(median(r.RunsMs)/median(reps[i-1].RunsMs)-1))
			}
		}
		for _, m := range perLayer {
			var xs []float64
			for _, r := range tracedReps {
				xs = append(xs, r.Layers[m.name])
			}
			if m.name == "trace.overhead_pct" {
				xs = overhead
			}
			metrics[m.name] = metric{median(xs), m.unit}
		}
	} else {
		// Medians over repetitions, so that one repetition slowed by
		// the machine moves no metric much, and the throughput of the
		// library workloads on a quiet machine (quietRate).
		var setup, rss, rates, runs []float64
		for _, r := range reps {
			setup = append(setup, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
			rates = append(rates, ratio(float64(r.Evals), r.MeasuredS))
			runs = append(runs, r.RunsMs...)
		}
		values := map[string]float64{
			"setup_s":     median(setup),
			"evals_per_s": median(rates),
			"peak_rss_mb": median(rss),
		}
		if q := quietRate(reps); q > 0 {
			values["evals_per_s"] = q
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{values[m.name], m.unit}
		}
		notes = append(notes,
			fmt.Sprintf("%-34s %14.6g ms (over %d runs; printed, not gated)", "run_ms_p50", quantile(runs, 0.5), len(runs)),
			fmt.Sprintf("%-34s %14.6g ms (over %d runs; printed, not gated)", "run_ms_p95", quantile(runs, 0.95), len(runs)),
			fmt.Sprintf("%-34s %s 1/s", "whole-phase evals_per_s by rep.", formatAll(rates)),
			fmt.Sprintf("%-34s %s s", "setup_s by repetition", formatAll(setup)))
	}
	if len(reps) == 0 {
		failed = max(failed, 1)
		failures = append(failures, "no repetition completed")
	}

	report(name, seed, trace, reps, metrics, notes, attempted, failed, failures, work)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, max(attempted, 1), failed, finite(metrics)})
	fmt.Println(string(out))
	if failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

// quietRate is the evaluations per second of a library workload's
// measured phases in the stretches when the machine ran them at full
// speed, or 0 for atfd-warm. On a shared machine other tenants slow a
// process down for moments at a time, by up to half; the fastest of
// several runs of the same work varies less than their mean. Every
// untraced repetition does the same work, cut into the same pieces (one
// evaluation of gemm-distinct, sweepPiece of overhead-sweep); each piece
// counts with its shortest time over the repetitions.
func quietRate(reps []*repResult) float64 {
	var best []float64
	var evals uint64
	for _, r := range reps {
		switch {
		case r.Traced:
		case best == nil:
			best, evals = append([]float64(nil), r.Pieces...), r.PieceEvals
		default:
			for i := range best {
				if i < len(r.Pieces) {
					best[i] = min(best[i], r.Pieces[i])
				}
			}
		}
	}
	return ratio(float64(evals), sum(best))
}

// disagreements describes every repetition whose result differs from
// that of the first one. All repetitions of a run use the run's seed.
func disagreements(reps []*repResult) []string {
	var out []string
	for _, r := range reps {
		if f := reps[0]; r.Result != f.Result {
			out = append(out, fmt.Sprintf("repetitions %d and %d computed different results: %s and %s",
				f.index, r.index, f.Result, r.Result))
		}
	}
	return out
}

// runChild runs one repetition and decodes the result from its last
// stdout line. Its stderr goes straight to ours; ctx ending kills it.
func runChild(ctx context.Context, self string, args []string) (*repResult, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("bad repetition output: %w", err)
	}
	return &res, nil
}

func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// finite replaces values JSON cannot carry (no successful repetition)
// with 0; the run is already marked failed then.
func finite(ms map[string]metric) map[string]metric {
	out := map[string]metric{}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out[k] = m
	}
	return out
}

// report prints the run in readable form: every metric by name with its
// unit and sample count, failures, and the environment.
func report(name string, seed int64, trace bool, reps []*repResult, metrics map[string]metric, notes []string,
	attempted, failed int, failures []string, work string) {
	nRuns := 0
	for _, r := range reps {
		nRuns += len(r.RunsMs)
	}
	fmt.Printf("perfbench %s seed=%d trace=%v: %d cold repetitions, %d tuning runs or sessions\n",
		name, seed, trace, len(reps), nRuns)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %-34s %14.6g (%d of %d operations)\n", "failed_frac", ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, f := range failures {
		fmt.Println("  FAILED:", f)
	}
	env, _ := json.Marshal(environment(work))
	fmt.Println("  env", string(env))
}
