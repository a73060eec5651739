package oclc_test

// Differential testing of the execution engines: every corpus kernel runs
// under the tree-walking reference interpreter and the lockstep-vectorized
// VM, across several define-sets, and the test asserts identical
// observable behaviour — buffer contents bit-for-bit, the full Counters
// struct, execution geometry, the divergence flag, and error strings.
// This is the acceptance gate that lets the VM replace the walker as the
// default engine. Kernels with work-item-dependent branches also run the
// VM's scalar per-item frames (its divergence fallback), so those are
// held to the walker too.

import (
	"fmt"
	"testing"

	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/oclc"
)

// diffCase is one kernel × define-set × launch geometry to compare.
type diffCase struct {
	name    string
	src     string
	defines map[string]string
	kernel  string
	global  [2]int64 // second entry 0 for 1-D
	local   [2]int64
	// bufs describes the kernel arguments in order: >0 allocates a float
	// buffer of that many elements (filled i -> 1000-i), <0 an int buffer
	// of -n elements (filled i -> i-3), 0 takes the next scalar.
	bufs    []int
	scalars []oclc.Arg
}

var diffCorpus = []diffCase{
	{
		name: "saxpy-wpt2",
		src: `__kernel void saxpy(const int N, const float a,
			__global float* x, __global float* y) {
		  for (int w = 0; w < WPT; w++) {
		    const int id = w * get_global_size(0) + get_global_id(0);
		    y[id] = a * x[id] + y[id];
		  }
		}`,
		defines: map[string]string{"WPT": "2"},
		kernel:  "saxpy",
		global:  [2]int64{16, 0}, local: [2]int64{4, 0},
		bufs:    []int{0, 0, 32, 32},
		scalars: []oclc.Arg{oclc.IntArg(32), oclc.FloatArg(2.5)},
	},
	{
		name: "saxpy-wpt8",
		src: `__kernel void saxpy(const int N, const float a,
			__global float* x, __global float* y) {
		  for (int w = 0; w < WPT; w++) {
		    const int id = w * get_global_size(0) + get_global_id(0);
		    y[id] = a * x[id] + y[id];
		  }
		}`,
		defines: map[string]string{"WPT": "8"},
		kernel:  "saxpy",
		global:  [2]int64{4, 0}, local: [2]int64{2, 0},
		bufs:    []int{0, 0, 32, 32},
		scalars: []oclc.Arg{oclc.IntArg(32), oclc.FloatArg(-1.25)},
	},
	{
		name: "local-barrier-reverse",
		src: `__kernel void reverse(__global float* data) {
		  __local float tile[LS];
		  const int l = get_local_id(0);
		  const int base = get_group_id(0) * LS;
		  tile[l] = data[base + l];
		  barrier(0);
		  data[base + l] = tile[LS - 1 - l];
		}`,
		defines: map[string]string{"LS": "8"},
		kernel:  "reverse",
		global:  [2]int64{32, 0}, local: [2]int64{8, 0},
		bufs: []int{32},
	},
	{
		name: "int-float-mix",
		src: `__kernel void mix(__global float* out, __global int* flags, const int n) {
		  const int g = get_global_id(0);
		  int acc = g % 5;
		  float facc = 0.5f;
		  for (int i = 0; i < n; i++) {
		    acc = acc * 3 + (i & 7);
		    acc ^= i << 2;
		    facc = fma(facc, 1.0f + (float)(i) * 0.125f, 0.25f);
		    facc /= 2;
		  }
		  if (acc % 2 == 0 && facc > 0.0f) { flags[g] = acc; }
		  else { flags[g] = -acc; }
		  out[g] = facc + (float)(acc);
		}`,
		kernel: "mix",
		global: [2]int64{8, 0}, local: [2]int64{4, 0},
		bufs: []int{8, -8, 0},
		scalars: []oclc.Arg{
			oclc.IntArg(6),
		},
	},
	{
		name: "specialized-branches",
		src: `__kernel void spec(__global float* out) {
		  const int g = get_global_id(0);
		  float v = 0.0f;
		  #pragma unroll
		  for (int u = 0; u < UF; u++) {
		    if (MODE == 1) { v += 1.5f; } else { v -= 2.5f; }
		    v += (MODE == 1) ? 0.5f : 0.25f;
		  }
		  while (v > LIMIT) { v = v / 2.0f; }
		  out[g] = v;
		}`,
		defines: map[string]string{"UF": "5", "MODE": "1", "LIMIT": "2.0f"},
		kernel:  "spec",
		global:  [2]int64{4, 0}, local: [2]int64{2, 0},
		bufs: []int{4},
	},
	{
		name: "helper-and-private-arrays",
		src: `float sq(float v) { return v * v; }
		int pick(int a, int b) { if (a > b) { return a; } return b; }
		__kernel void hp(__global float* out) {
		  const int g = get_global_id(0);
		  float acc[4];
		  for (int i = 0; i < 4; i++) { acc[i] = sq((float)(i + g)); }
		  float s = 0.0f;
		  for (int i = 0; i < 4; i++) { s += acc[i]; }
		  out[g] = s + (float)(pick(g, 2));
		}`,
		kernel: "hp",
		global: [2]int64{6, 0}, local: [2]int64{3, 0},
		bufs: []int{6},
	},
	{
		name: "transpose-2d",
		src: `__kernel void transpose(const int n, __global float* in, __global float* out) {
		  const int x = get_global_id(0);
		  const int y = get_global_id(1);
		  float tile[TS][TS];
		  tile[get_local_id(1)][get_local_id(0)] = in[y * n + x];
		  out[x * n + y] = tile[get_local_id(1)][get_local_id(0)];
		}`,
		defines: map[string]string{"TS": "2"},
		kernel:  "transpose",
		global:  [2]int64{4, 4}, local: [2]int64{2, 2},
		bufs:    []int{0, 16, 16},
		scalars: []oclc.Arg{oclc.IntArg(4)},
	},
	{
		name: "builtins-and-casts",
		src: `__kernel void bc(__global float* out) {
		  const int g = get_global_id(0);
		  float v = sqrt((float)(g + 1)) + fabs(-1.5f) + pow(2.0f, 3.0f);
		  v += (float)(abs(2 - g)) + fmod(7.5f, 2.0f);
		  v = clamp(v, 0.0f, 100.0f) + (float)(min(g, 3)) + (float)(max(g, 1));
		  int b = !(g > 2);
		  int c = ~g;
		  out[g] = v + (float)(b) + (float)(c) + floor(v) * 0.001f;
		}`,
		kernel: "bc",
		global: [2]int64{8, 0}, local: [2]int64{4, 0},
		bufs: []int{8},
	},
	{
		// Shadowing: the same name in nested scopes resolves to distinct
		// slots; loop-body declarations re-execute per iteration.
		name: "scopes-and-shadowing",
		src: `__kernel void sh(__global float* out) {
		  const int g = get_global_id(0);
		  float v = 1.0f;
		  for (int i = 0; i < 4; i++) {
		    float v = 0.5f * (float)(i);
		    if (i > 1) { int v = i * 10; out[g * 8 + i + 4] = (float)(v); }
		    out[g * 8 + i] = v;
		  }
		  out[g * 8 + 3] += v;
		}`,
		kernel: "sh",
		global: [2]int64{2, 0}, local: [2]int64{2, 0},
		bufs: []int{16},
	},
	{
		// Kernel scalar arguments are not converted to the parameter type
		// (argToRval passes the Arg kind through): an int passed to a
		// float parameter stays an int, defeating static kind knowledge.
		name: "mismatched-scalar-args",
		src: `__kernel void mm(__global float* out, const float a, const int b) {
		  const int g = get_global_id(0);
		  float v = a * 2.0f + a;
		  int w = b + 1;
		  v += (float)(w) / 4.0f + a;
		  out[g] = v + (a > 1.0f ? 1.0f : 0.0f);
		}`,
		kernel: "mm",
		global: [2]int64{4, 0}, local: [2]int64{2, 0},
		bufs: []int{4, 0, 0},
		scalars: []oclc.Arg{
			oclc.IntArg(3),      // int into float parameter
			oclc.FloatArg(2.75), // float into int parameter
		},
	},
	{
		name: "incdec-and-compound",
		src: `__kernel void cd(__global int* out, const int n) {
		  const int g = get_global_id(0);
		  int i = 0;
		  int acc = 0;
		  while (i < n) {
		    acc += i++;
		    acc -= --i + i++;
		    acc <<= 1;
		    acc |= g;
		    acc &= 1048575;
		  }
		  out[g] = acc + i--;
		}`,
		kernel: "cd",
		global: [2]int64{4, 0}, local: [2]int64{4, 0},
		bufs: []int{-4, 0},
		scalars: []oclc.Arg{
			oclc.IntArg(5),
		},
	},
	{
		name: "oob-error",
		src: `__kernel void oob(__global float* out, const int i) {
		  out[i + get_global_id(0)] = 1.0f;
		}`,
		kernel: "oob",
		global: [2]int64{4, 0}, local: [2]int64{2, 0},
		bufs: []int{0, 4},
		scalars: []oclc.Arg{
			oclc.IntArg(2),
		},
	},
	{
		name: "div-zero-error",
		src: `__kernel void dz(__global int* out, const int z) {
		  out[get_global_id(0)] = 4 / z;
		}`,
		kernel: "dz",
		global: [2]int64{4, 0}, local: [2]int64{2, 0},
		bufs: []int{-4, 0},
		scalars: []oclc.Arg{
			oclc.IntArg(0),
		},
	},
	{
		name: "divergent-barrier",
		src: `__kernel void div(__global float* out) {
		  if (get_local_id(0) == 0) { barrier(0); }
		  out[get_global_id(0)] = 1.0f;
		}`,
		kernel: "div",
		global: [2]int64{4, 0}, local: [2]int64{4, 0},
		bufs: []int{4},
	},
	{
		// Data-dependent branch and loop bound: lanes take different paths
		// and different trip counts based on loaded values, so the vector
		// engine must scatter and finish the group on scalar frames (no
		// barrier ever re-converges it).
		name: "data-dependent-branch",
		src: `__kernel void ddb(__global float* out, __global int* sel) {
		  const int g = get_global_id(0);
		  float v = 1.0f;
		  if (sel[g] > 0) { v = v * 2.0f + 1.0f; } else { v = v - 3.0f; }
		  for (int i = 0; i < sel[g] + 4; i++) { v += (float)(i * (g + 1)); }
		  out[g] = v;
		}`,
		kernel: "ddb",
		global: [2]int64{8, 0}, local: [2]int64{4, 0},
		bufs: []int{8, -8},
	},
	{
		// Early return inside a loop: some lanes exit the kernel mid-loop
		// while the rest keep iterating — lane deaths inside a divergent
		// region, with per-lane counters diverging too.
		name: "early-return-in-loop",
		src: `__kernel void er(__global float* out, __global int* lim) {
		  const int g = get_global_id(0);
		  float acc = 0.0f;
		  for (int i = 0; i < 16; i++) {
		    if (i == lim[g]) { out[g] = acc; return; }
		    acc += (float)(g + i);
		  }
		  out[g] = -acc;
		}`,
		kernel: "er",
		global: [2]int64{8, 0}, local: [2]int64{8, 0},
		bufs: []int{8, -8},
	},
	{
		// Divergent region between two uniform ones, separated by a
		// barrier: the group scatters at the data-dependent branch, every
		// lane reaches the barrier, and the vector engine re-gathers and
		// finishes the reduction in lockstep.
		name: "divergent-barrier-regather",
		src: `__kernel void dbr(__global float* out, __global int* sel) {
		  __local float tile[LS];
		  const int l = get_local_id(0);
		  float v;
		  if (sel[get_global_id(0)] > 0) { v = 2.0f; } else { v = 0.5f; }
		  tile[l] = v;
		  barrier(0);
		  float s = 0.0f;
		  for (int i = 0; i < LS; i++) { s += tile[i]; }
		  out[get_global_id(0)] = s * v;
		}`,
		defines: map[string]string{"LS": "8"},
		kernel:  "dbr",
		global:  [2]int64{16, 0}, local: [2]int64{8, 0},
		bufs: []int{16, -16},
	},
	{
		// The VM's scalar per-item frames, its divergence fallback, are
		// the only place these forms run: the unhinted branch on the
		// local id scatters the group, and every lane then executes the
		// rest of the segment on its own frame — unfused register
		// comparisons, int and float immediate arithmetic, prefix and
		// postfix increments, folded-constant counter bumps, !/~, fma, a
		// runtime-sized private array, loops whose conditions do not fuse
		// (|| and &&), and an unrolled loop with a runtime bound.
		// Barriers in the two arms of one branch release the group
		// without re-converging it, so the code after them stays scalar.
		name: "scalar-fallback-ops",
		src: `__kernel void sfo(__global float* out, __global int* iout, const int n, const float s) {
		  const int l = get_local_id(0);
		  const int g = get_global_id(0);
		  int i = g + n;
		  int d = g - 2;
		  float f = (float)(g) + s;
		  if (l & 1) { i = i * 3; f = f + 0.25f; } else { d = d * 5; }
		  int cmp = (i == d) + 2 * (i != d) + 4 * (i < d) + 8 * (i > d) + 16 * (i <= d) + 32 * (i >= d);
		  int isub = i - d;
		  int iimm = (i - 3) * 7 + (3 - i) + i / 2 + i % 5 + i % (d | 1);
		  float fimm = (f + 2) + (f - 3) * (5 - f) + f * 4 + f / 8;
		  int fcmp = (f == 3) + 2 * (f < 4) + 4 * (f >= 2);
		  float fdiv = f / s;
		  int pre = ++i + --d;
		  int post = i++ + d--;
		  float fpre = ++f;
		  float fpost = f--;
		  int nots = !i + !f + ~d + ~(i & 7);
		  float fm = fma(f, s, fdiv);
		  float folded = f * (2.0f * 1.5f) + (float)(2 + 3) * 1.25f;
		  float acc = 0.0f;
		  #pragma unroll
		  for (int u = 0; u < n; u++) { acc += (float)(u) * f; }
		  int flag = (i > d) || (d > 100);
		  int w = 0;
		  for (int k = 0; flag && k < 3; k++) { w += k; }
		  #pragma unroll
		  for (int k = 0; flag && k < 2; k++) { w += 2 * k; }
		  float tmp[n];
		  int itmp[2];
		  tmp[0] = f;
		  tmp[n - 1] = s;
		  ++tmp[0];
		  tmp[n - 1]--;
		  itmp[0] = w;
		  itmp[1] = itmp[0]++;
		  iout[g] = cmp + 64 * isub + iimm + pre + post + fcmp + nots + flag + w + itmp[0] + itmp[1];
		  out[g] = fimm + fdiv + fpre + fpost + fm + folded + acc + tmp[0] + tmp[n - 1];
		  if (l & 2) { barrier(0); } else { barrier(0); }
		  out[g] = out[g] * 0.5f + (float)(iout[g] % 7);
		  barrier(0);
		  iout[g] = iout[g] - (int)(out[g]);
		}`,
		kernel: "sfo",
		global: [2]int64{16, 0}, local: [2]int64{8, 0},
		bufs:    []int{16, -16, 0, 0},
		scalars: []oclc.Arg{oclc.IntArg(3), oclc.FloatArg(1.5)},
	},
	{
		// Per-lane runtime errors on scalar frames: after the scatter each
		// lane fails a different check, and the launch reports the first
		// failing lane's error in local id order under both engines.
		name: "scalar-fallback-errors",
		src: `__kernel void sfe(__global float* out, __global int* sel) {
		  const int l = get_local_id(0);
		  const int g = get_global_id(0);
		  const int z = sel[g] - sel[g];
		  int x = g;
		  float f = (float)(g) + 0.5f;
		  if (l == 0) { out[g] = f; }
		  else if (l == 1) { out[g] = (float)(g % z); }
		  else if (l == 2) { out[g] = (float)(g / z); }
		  else if (l == 3) { out[g] = f % x; }
		  else if (l == 4) { out[g] = (float)(f << x); }
		  else if (l == 5) { out[g] = f % 3; }
		  else if (l == 6) { out[g] = (float)(f << 2); }
		  else if (l == 7) { out[g] = out[g + 1000]; }
		  else if (l == 8) { out[g + 1000] = f; }
		  else if (l == 9) { out[g] = (float)(x[g / (z + 1)]); }
		  else if (l == 10) { out[g] = (float)(x[g]); }
		  else if (l == 11) { out[g] = out[g][1]; }
		  else if (l == 12) { out[g] = out[0][g / (z + 1)]; }
		  else if (l == 13) { float t[z - l]; t[0] = f; out[g] = t[0]; }
		  else if (l == 14) { out[g] = (float)(4 / (N - N)); }
		  else { out[g] = pow(f); }
		}`,
		defines: map[string]string{"N": "3"},
		kernel:  "sfe",
		global:  [2]int64{16, 0}, local: [2]int64{16, 0},
		bufs: []int{16, -16},
	},
	{
		// Lanes that fail in lockstep, before a barrier every survivor
		// reaches in lockstep and before a divergent branch: the failed
		// launch's buffers and error text must match the walker's.
		name: "lockstep-deaths",
		src: `__kernel void ld(__global float* out, __global int* sel) {
		  const int g = get_global_id(0);
		  float v = out[g + sel[g]];
		  barrier(0);
		  float w = out[sel[g] * 3];
		  if (get_local_id(0) & 1) { v = v + w; }
		  barrier(0);
		  out[g] = v;
		}`,
		kernel: "ld",
		global: [2]int64{16, 0}, local: [2]int64{8, 0},
		bufs: []int{16, -16},
	},
}

// diffRun executes one case under one engine with fresh buffers and
// returns everything observable.
type diffRun struct {
	res  *oclc.ExecResult
	err  error
	bufs [][]float64
}

func runDiffCase(t *testing.T, tc diffCase, eng oclc.Engine) diffRun {
	t.Helper()
	prog, err := oclc.Compile(tc.src, tc.defines)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var args []oclc.Arg
	var bufs []*oclc.Memory
	si := 0
	for bi, n := range tc.bufs {
		switch {
		case n > 0:
			m := oclc.NewGlobalMemory(bi+1, oclc.KFloat, 4, n)
			for i := range m.Data {
				m.Data[i] = float64(1000 - i)
			}
			bufs = append(bufs, m)
			args = append(args, oclc.BufArg(m))
		case n < 0:
			m := oclc.NewGlobalMemory(bi+1, oclc.KInt, 4, -n)
			for i := range m.Data {
				m.Data[i] = float64(i - 3)
			}
			bufs = append(bufs, m)
			args = append(args, oclc.BufArg(m))
		default:
			args = append(args, tc.scalars[si])
			si++
		}
	}
	var cfg oclc.LaunchConfig
	if tc.global[1] == 0 {
		cfg = oclc.NDRange1D(tc.global[0], tc.local[0])
	} else {
		cfg = oclc.NDRange2D(tc.global[0], tc.global[1], tc.local[0], tc.local[1])
	}
	res, err := prog.Launch(tc.kernel, args, cfg, oclc.ExecOptions{Engine: eng})
	out := diffRun{res: res, err: err}
	for _, m := range bufs {
		cp := make([]float64, len(m.Data))
		copy(cp, m.Data)
		out.bufs = append(out.bufs, cp)
	}
	return out
}

func compareRuns(t *testing.T, eng oclc.Engine, ref, got diffRun) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) {
		t.Fatalf("%v: error mismatch: walk=%v, %v=%v", eng, ref.err, eng, got.err)
	}
	if ref.err != nil && ref.err.Error() != got.err.Error() {
		t.Fatalf("%v: error text mismatch:\n  walk: %v\n  %v: %v", eng, ref.err, eng, got.err)
	}
	for i := range ref.bufs {
		for j := range ref.bufs[i] {
			if ref.bufs[i][j] != got.bufs[i][j] {
				t.Fatalf("%v: buffer %d[%d] = %v, walk has %v", eng, i, j, got.bufs[i][j], ref.bufs[i][j])
			}
		}
	}
	if ref.err != nil {
		return // failed launches return no ExecResult
	}
	if ref.res.Counters != got.res.Counters {
		t.Fatalf("%v: counters mismatch:\n  walk: %+v\n  %v: %+v", eng, ref.res.Counters, eng, got.res.Counters)
	}
	if ref.res.WIsExecuted != got.res.WIsExecuted ||
		ref.res.GroupsExecuted != got.res.GroupsExecuted ||
		ref.res.Divergent != got.res.Divergent ||
		ref.res.LocalBytes != got.res.LocalBytes {
		t.Fatalf("%v: geometry mismatch:\n  walk: %+v\n  %v: %+v", eng, ref.res, eng, got.res)
	}
}

func TestDifferentialEngines(t *testing.T) {
	for _, tc := range diffCorpus {
		t.Run(tc.name, func(t *testing.T) {
			ref := runDiffCase(t, tc, oclc.EngineWalk)
			compareRuns(t, oclc.EngineVMVec, ref, runDiffCase(t, tc, oclc.EngineVMVec))
		})
	}
}

// TestDifferentialXgemmDirect runs the full CLBlast XgemmDirect kernel —
// the tuning workload the VM was built for — under both engines across
// several configurations and compares results and counters.
func TestDifferentialXgemmDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("XgemmDirect differential is slow")
	}
	cfgs := []*core.Config{
		clblast.DefaultConfig(),
		core.ConfigFromMap(clblast.XgemmDirectNames, map[string]core.Value{
			"WGD": core.Int(16), "KWID": core.Int(2),
			"MDIMCD": core.Int(8), "NDIMCD": core.Int(8),
			"MDIMAD": core.Int(8), "NDIMBD": core.Int(8),
			"VWMD": core.Int(2), "VWND": core.Int(2),
			"PADA": core.Bool(true), "PADB": core.Bool(false),
		}),
		core.ConfigFromMap(clblast.XgemmDirectNames, map[string]core.Value{
			"WGD": core.Int(8), "KWID": core.Int(1),
			"MDIMCD": core.Int(4), "NDIMCD": core.Int(4),
			"MDIMAD": core.Int(4), "NDIMBD": core.Int(4),
			"VWMD": core.Int(1), "VWND": core.Int(1),
			"PADA": core.Bool(false), "PADB": core.Bool(false),
		}),
	}
	const m, n, k = 32, 32, 32
	shape := clblast.GemmShape{Name: "diff", M: m, N: n, K: k}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			type gemmRun struct {
				res *oclc.ExecResult
				err error
				c   []float64
			}
			run := func(eng oclc.Engine) gemmRun {
				prog, err := oclc.Compile(clblast.XgemmDirectSource, cfg.Defines())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				a := oclc.NewGlobalMemory(1, oclc.KFloat, 4, m*k)
				b := oclc.NewGlobalMemory(2, oclc.KFloat, 4, k*n)
				c := oclc.NewGlobalMemory(3, oclc.KFloat, 4, m*n)
				for i := range a.Data {
					a.Data[i] = float64((i%13)-6) * 0.25
				}
				for i := range b.Data {
					b.Data[i] = float64((i%7)-3) * 0.5
				}
				for i := range c.Data {
					c.Data[i] = float64(i % 5)
				}
				global, local := clblast.GlobalLocalSize(cfg, shape)
				nd := oclc.NDRange2D(global[0], global[1], local[0], local[1])
				args := []oclc.Arg{
					oclc.IntArg(m), oclc.IntArg(n), oclc.IntArg(k),
					oclc.FloatArg(1.5), oclc.FloatArg(0.5),
					oclc.BufArg(a), oclc.BufArg(b), oclc.BufArg(c),
				}
				res, err := prog.Launch("XgemmDirect", args, nd, oclc.ExecOptions{Engine: eng})
				cp := make([]float64, len(c.Data))
				copy(cp, c.Data)
				return gemmRun{res: res, err: err, c: cp}
			}
			ref := run(oclc.EngineWalk)
			if ref.err != nil {
				t.Fatalf("walk failed: %v", ref.err)
			}
			got := run(oclc.EngineVMVec)
			if got.err != nil {
				t.Fatalf("vm-vec failed: %v", got.err)
			}
			for i := range ref.c {
				if ref.c[i] != got.c[i] {
					t.Fatalf("vm-vec: C[%d] = %v, walk has %v", i, got.c[i], ref.c[i])
				}
			}
			if ref.res.Counters != got.res.Counters {
				t.Fatalf("vm-vec: counters mismatch:\n  walk: %+v\n  vm-vec: %+v",
					ref.res.Counters, got.res.Counters)
			}
			if ref.res.Divergent != got.res.Divergent || ref.res.LocalBytes != got.res.LocalBytes {
				t.Fatal("vm-vec: geometry mismatch")
			}
		})
	}
}

// TestVMVecGroupSizeProperty is the lane-width property test for the
// vectorized engine: a corpus of kernels (uniform, divergent, and
// barrier-re-converging) runs at work-group sizes {1, 2, 7, 64} — scalar
// degenerate, minimal, odd, and wide — over a fixed 448-item NDRange
// (divisible by every size). At every size vm-vec must be bit-equal to
// the walker, and kernels whose semantics don't reference the local
// geometry must additionally produce buffers invariant to the group size.
func TestVMVecGroupSizeProperty(t *testing.T) {
	const global = 448
	sizes := []int64{1, 2, 7, 64}
	cases := []struct {
		tc            diffCase
		sizeInvariant bool
	}{
		{sizeInvariant: true, tc: diffCase{
			name: "saxpy",
			src: `__kernel void saxpy(const int N, const float a,
				__global float* x, __global float* y) {
			  for (int w = 0; w < WPT; w++) {
			    const int id = w * get_global_size(0) + get_global_id(0);
			    y[id] = a * x[id] + y[id];
			  }
			}`,
			defines: map[string]string{"WPT": "2"},
			kernel:  "saxpy",
			bufs:    []int{0, 0, 2 * global, 2 * global},
			scalars: []oclc.Arg{oclc.IntArg(2 * global), oclc.FloatArg(2.5)},
		}},
		{sizeInvariant: true, tc: diffCase{
			name: "int-float-mix",
			src: `__kernel void mix(__global float* out, __global int* flags, const int n) {
			  const int g = get_global_id(0);
			  int acc = g % 5;
			  float facc = 0.5f;
			  for (int i = 0; i < n; i++) {
			    acc = acc * 3 + (i & 7);
			    acc ^= i << 2;
			    facc = fma(facc, 1.0f + (float)(i) * 0.125f, 0.25f);
			    facc /= 2;
			  }
			  if (acc % 2 == 0 && facc > 0.0f) { flags[g] = acc; }
			  else { flags[g] = -acc; }
			  out[g] = facc + (float)(acc);
			}`,
			kernel:  "mix",
			bufs:    []int{global, -global, 0},
			scalars: []oclc.Arg{oclc.IntArg(6)},
		}},
		{sizeInvariant: true, tc: diffCase{
			name: "builtins",
			src: `__kernel void bc(__global float* out) {
			  const int g = get_global_id(0);
			  float v = sqrt((float)(g + 1)) + fabs(-1.5f) + pow(2.0f, 3.0f);
			  v += (float)(abs(2 - g)) + fmod(7.5f, 2.0f);
			  v = clamp(v, 0.0f, 100.0f) + (float)(min(g, 3)) + (float)(max(g, 1));
			  out[g] = v;
			}`,
			kernel: "bc",
			bufs:   []int{global},
		}},
		{sizeInvariant: true, tc: diffCase{
			name: "data-dependent-branch",
			src: `__kernel void ddb(__global float* out, __global int* sel) {
			  const int g = get_global_id(0);
			  float v = 1.0f;
			  if (sel[g] > 0) { v = v * 2.0f + 1.0f; } else { v = v - 3.0f; }
			  for (int i = 0; i < (sel[g] & 7) + 1; i++) { v += (float)(i * (g + 1)); }
			  out[g] = v;
			}`,
			kernel: "ddb",
			bufs:   []int{global, -global},
		}},
		{sizeInvariant: true, tc: diffCase{
			name: "early-return-in-loop",
			src: `__kernel void er(__global float* out, __global int* lim) {
			  const int g = get_global_id(0);
			  float acc = 0.0f;
			  for (int i = 0; i < 16; i++) {
			    if (i == lim[g]) { out[g] = acc; return; }
			    acc += (float)(g + i);
			  }
			  out[g] = -acc;
			}`,
			kernel: "er",
			bufs:   []int{global, -global},
		}},
		{sizeInvariant: false, tc: diffCase{
			// Divergence, then a barrier re-convergence, in a kernel whose
			// output depends on the local geometry — exercises the scatter
			// and re-gather paths at every lane width, including width 1.
			name: "divergent-barrier-regather",
			src: `__kernel void dbr(__global float* out, __global int* sel) {
			  const int g = get_global_id(0);
			  float v;
			  if (sel[g] > 0) { v = 2.0f; } else { v = 0.5f; }
			  barrier(0);
			  out[g] = v * (float)(get_local_id(0) + get_local_size(0));
			}`,
			kernel: "dbr",
			bufs:   []int{global, -global},
		}},
	}
	for _, c := range cases {
		t.Run(c.tc.name, func(t *testing.T) {
			var first diffRun
			for si, local := range sizes {
				tc := c.tc
				tc.global = [2]int64{global, 0}
				tc.local = [2]int64{local, 0}
				ref := runDiffCase(t, tc, oclc.EngineWalk)
				got := runDiffCase(t, tc, oclc.EngineVMVec)
				compareRuns(t, oclc.EngineVMVec, ref, got)
				if si == 0 {
					first = got
					continue
				}
				if !c.sizeInvariant {
					continue
				}
				for i := range first.bufs {
					for j := range first.bufs[i] {
						if first.bufs[i][j] != got.bufs[i][j] {
							t.Fatalf("local=%d: buffer %d[%d] = %v, local=%d has %v",
								local, i, j, got.bufs[i][j], sizes[0], first.bufs[i][j])
						}
					}
				}
			}
		})
	}
}
