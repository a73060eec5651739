package oclc_test

// Differential fuzzing of the lockstep-vectorized engine against the
// tree-walking reference. Each input drives two checks:
//
//   - a kernel of the differential corpus (diffCorpus) runs with buffer
//     contents taken from the input, so its data-dependent branches take
//     input-chosen paths;
//   - a kernel generated from the input runs at work-group sizes 1, 7 and
//     64. The generator mixes int and float statements (expression
//     temporaries and block-scoped slots are reused across kinds), reads
//     and writes private and __local 2-D arrays, passes pointer arguments
//     to a helper function, and wraps statements in unhinted divergent
//     branches and loops, early returns and barriers, including barriers
//     only some work-items reach.
//
// Buffers, Counters, error text, execution geometry and the divergence
// flag must be bit-equal between the engines. Run it with
//
//	go test ./internal/oclc -run '^$' -fuzz FuzzVMVecDifferential -fuzztime 10s
//
// and commit any crasher the fuzzer writes to testdata/fuzz as a
// regression case.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"atf/internal/oclc"
)

func FuzzVMVecDifferential(f *testing.F) {
	for i := range diffCorpus {
		f.Add(uint8(i), []byte(fmt.Sprintf("seed %d: %s", i, diffCorpus[i].name)))
	}
	f.Add(uint8(0), []byte{5, 3, 1, 4, 4, 0, 9, 2, 8, 7, 6, 5, 9, 9, 1, 0, 3})
	f.Add(uint8(13), []byte{2, 2, 2, 4, 9, 5, 1, 7, 3, 3, 8, 0, 6, 1, 4})
	f.Fuzz(func(t *testing.T, base uint8, prog []byte) {
		tc := diffCorpus[int(base)%len(diffCorpus)]
		compareFuzzRuns(t, tc.name, runFuzzCase(t, tc, oclc.EngineWalk, prog), runFuzzCase(t, tc, oclc.EngineVMVec, prog))

		src := genKernel(prog)
		for _, ls := range []int64{1, 7, 64} {
			gc := diffCase{
				name:    fmt.Sprintf("generated/local=%d", ls),
				src:     src,
				defines: map[string]string{"LS": fmt.Sprint(ls)},
				kernel:  "fz",
				global:  [2]int64{2 * ls, 0}, local: [2]int64{ls, 0},
				bufs: []int{fuzzBuf, -fuzzBuf, -fuzzBuf, fuzzBuf, fuzzBuf},
			}
			compareFuzzRuns(t, gc.name+"\n"+src, runFuzzCase(t, gc, oclc.EngineWalk, prog), runFuzzCase(t, gc, oclc.EngineVMVec, prog))
		}
	})
}

// fuzzBuf is the element count of the generated kernel's buffers; every
// generated subscript of them is masked into range. The kernel reads its
// inputs (iin, fin, gin) at any index but writes its outputs (out, iout)
// only at its own global id, so it has no data race between work-items.
const fuzzBuf = 128

// runFuzzCase is runDiffCase with buffer contents taken from data: int
// buffers hold small signed values, float buffers quarter steps.
func runFuzzCase(t *testing.T, tc diffCase, eng oclc.Engine, data []byte) diffRun {
	t.Helper()
	prog, err := oclc.Compile(tc.src, tc.defines)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", tc.name, err, tc.src)
	}
	at := func(i int) int {
		if len(data) == 0 {
			return i
		}
		return int(int8(data[i%len(data)]))
	}
	var args []oclc.Arg
	var bufs []*oclc.Memory
	si := 0
	for bi, n := range tc.bufs {
		switch {
		case n > 0:
			m := oclc.NewGlobalMemory(bi+1, oclc.KFloat, 4, n)
			for i := range m.Data {
				m.Data[i] = float64(at(i+bi)) / 4
			}
			bufs = append(bufs, m)
			args = append(args, oclc.BufArg(m))
		case n < 0:
			m := oclc.NewGlobalMemory(bi+1, oclc.KInt, 4, -n)
			for i := range m.Data {
				m.Data[i] = float64(at(i+bi) % 9)
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
		out.bufs = append(out.bufs, append([]float64(nil), m.Data...))
	}
	return out
}

// compareFuzzRuns is compareRuns with bit equality of buffer cells, so
// that NaN results compare equal to themselves.
func compareFuzzRuns(t *testing.T, name string, ref, got diffRun) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) || ref.err != nil && ref.err.Error() != got.err.Error() {
		t.Fatalf("%s: error mismatch:\n  walk:   %v\n  vm-vec: %v", name, ref.err, got.err)
	}
	for i := range ref.bufs {
		for j := range ref.bufs[i] {
			if math.Float64bits(ref.bufs[i][j]) != math.Float64bits(got.bufs[i][j]) {
				t.Fatalf("%s: buffer %d[%d] = %v, walk has %v", name, i, j, got.bufs[i][j], ref.bufs[i][j])
			}
		}
	}
	if ref.err != nil {
		return
	}
	if ref.res.Counters != got.res.Counters {
		t.Fatalf("%s: counters mismatch:\n  walk:   %+v\n  vm-vec: %+v", name, ref.res.Counters, got.res.Counters)
	}
	if ref.res.WIsExecuted != got.res.WIsExecuted || ref.res.GroupsExecuted != got.res.GroupsExecuted ||
		ref.res.Divergent != got.res.Divergent || ref.res.LocalBytes != got.res.LocalBytes {
		t.Fatalf("%s: geometry mismatch:\n  walk:   %+v\n  vm-vec: %+v", name, ref.res, got.res)
	}
}

// kernelGen writes a kernel whose shape is read from the fuzz input. Once
// the input is exhausted every choice reads 0, so generation terminates.
type kernelGen struct {
	in    []byte
	pos   int
	b     strings.Builder
	loops int // loop variables declared so far (unique names)
	temps int // block-scoped temporaries declared so far
	// misaligned is set once a barrier only some work-items reach has
	// been written: from there on work-items may wait at different
	// barriers, so a later __local exchange would race.
	misaligned bool
}

func (g *kernelGen) pick(n int) int {
	if g.pos >= len(g.in) {
		return 0
	}
	v := int(g.in[g.pos]) % n
	g.pos++
	return v
}

func (g *kernelGen) line(depth int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", depth+1))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// genKernel builds the generated kernel of the fuzz input.
func genKernel(in []byte) string {
	g := &kernelGen{in: in}
	g.b.WriteString(`float helper(__global float* p, int i, float x) {
  return p[i & 127] * x + (float)(i);
}
__kernel void fz(__global float* out, __global int* iout,
                 __global int* iin, __global float* fin, __global float* gin) {
  __local float la[LS][4];
  float pa[2][4];
  const int g = get_global_id(0);
  const int lid = get_local_id(0);
  int i0 = iin[g];
  int i1 = lid;
  int i2 = g * 3;
  float f0 = fin[g];
  float f1 = 0.5f;
  float f2 = (float)(g);
  for (int r = 0; r < 2; r++) {
    for (int c = 0; c < 4; c++) { pa[r][c] = (float)(r * 4 + c); }
  }
`)
	for n := 1 + g.pick(8); n > 0; n-- {
		g.stmt(0)
	}
	g.line(0, "out[g] = f0 + f1 * f2 + (float)(i0 ^ i1) + pa[i2 & 1][i0 & 3];")
	g.line(0, "iout[g] = i0 + i1 + i2;")
	g.b.WriteString("}\n")
	return g.b.String()
}

// stmt writes one statement at nesting depth d. Barriers are written
// only where every work-item that is still running reaches them (depth
// 0), except in the deliberately divergent-barrier statement. The
// generated kernels are race-free: between two barriers no work-item
// reads memory another one writes. Races are undefined behaviour, and
// the walker's concurrent goroutines would make their outcome vary.
func (g *kernelGen) stmt(d int) {
	switch c := g.pick(12); {
	case c == 0:
		g.line(d, "i%d = %s;", g.pick(3), g.iexpr(0))
	case c == 1:
		g.line(d, "f%d = %s;", g.pick(3), g.fexpr(0))
	case c == 2:
		// Block-scoped temporaries of both kinds: slots and temporaries
		// are reused across int and float values.
		g.temps++
		g.line(d, "{ int t%d = %s; f%d = (float)(t%d) * %s; }", g.temps, g.iexpr(0), g.pick(3), g.temps, g.fexpr(0))
		g.temps++
		g.line(d, "{ float t%d = %s; i%d = (int)(t%d) + %s; }", g.temps, g.fexpr(0), g.pick(3), g.temps, g.iexpr(0))
	case c == 3:
		g.line(d, "pa[(%s) & 1][(%s) & 3] = %s;", g.iexpr(1), g.iexpr(1), g.fexpr(0))
	case c == 4:
		ops := []string{"+=", "-=", "*=", "="}
		g.line(d, "i%d %s f%d;", g.pick(3), ops[g.pick(len(ops))], g.pick(3))
		g.line(d, "f%d %s i%d;", g.pick(3), ops[g.pick(len(ops))], g.pick(3))
		g.line(d, "i%d++; f%d--;", g.pick(3), g.pick(3))
	case c == 5 && d == 0 && !g.misaligned:
		// Race-free __local exchange: each work-item writes its own row,
		// and rows are read only between the two barriers.
		g.line(d, "la[lid][(%s) & 3] = %s;", g.iexpr(1), g.fexpr(1))
		g.line(d, "barrier(CLK_LOCAL_MEM_FENCE);")
		g.line(d, "f%d += la[(lid + %d) %% LS][(%s) & 3];", g.pick(3), g.pick(4), g.iexpr(1))
		g.line(d, "barrier(CLK_LOCAL_MEM_FENCE);")
	case c == 6 && d < 2:
		g.line(d, "if (%s) {", g.icond())
		for n := 1 + g.pick(3); n > 0; n-- {
			g.stmt(d + 1)
		}
		g.line(d, "} else {")
		for n := g.pick(3); n > 0; n-- {
			g.stmt(d + 1)
		}
		g.line(d, "}")
	case c == 7 && d < 2:
		g.loops++
		k := g.loops
		g.line(d, "for (int k%d = 0; k%d < ((%s) & 3); k%d++) {", k, k, g.iexpr(1), k)
		for n := 1 + g.pick(2); n > 0; n-- {
			g.stmt(d + 1)
		}
		g.line(d, "}")
	case c == 8:
		bufs := []string{"fin", "gin"}
		g.line(d, "f%d = helper(%s, %s, %s);", g.pick(3), bufs[g.pick(2)], g.iexpr(1), g.fexpr(1))
	case c == 9:
		g.line(d, "if (%s) { out[g] = f%d; return; }", g.icond(), g.pick(3))
	case c == 10:
		// A barrier that only some work-items reach.
		g.misaligned = true
		g.line(d, "if (%s) { barrier(0); }", g.icond())
	default:
		g.line(d, "i%d = i%d / ((%s) & 3);", g.pick(3), g.pick(3), g.iexpr(1)) // may divide by zero
	}
}

// icond is a work-item-dependent condition.
func (g *kernelGen) icond() string {
	vars := []string{"i0", "i1", "g", "lid"}
	cmps := []string{"<", ">", "==", "!="}
	return fmt.Sprintf("(%s %% %d) %s %d", vars[g.pick(len(vars))], 2+g.pick(3), cmps[g.pick(len(cmps))], g.pick(2))
}

// iexpr is an int-valued expression of at most a few levels.
func (g *kernelGen) iexpr(d int) string {
	if d >= 3 {
		return []string{"i0", "i1", "i2", "g", "lid", "3"}[g.pick(6)]
	}
	switch g.pick(10) {
	case 0:
		return []string{"i0", "i1", "i2", "g", "lid"}[g.pick(5)]
	case 1:
		return fmt.Sprint(g.pick(9) - 2)
	case 2:
		ops := []string{"+", "-", "*", "&", "|", "^"}
		return fmt.Sprintf("(%s %s %s)", g.iexpr(d+1), ops[g.pick(len(ops))], g.iexpr(d+1))
	case 3:
		return fmt.Sprintf("(%s << (%s & 7))", g.iexpr(d+1), g.iexpr(d+1))
	case 4:
		return fmt.Sprintf("(%s / ((%s & 3) + 1))", g.iexpr(d+1), g.iexpr(d+1))
	case 5:
		return fmt.Sprintf("(int)(%s)", g.fexpr(d+1))
	case 6:
		return fmt.Sprintf("iin[(%s) & 127]", g.iexpr(d+1))
	case 7:
		return fmt.Sprintf("(%s ? %s : %s)", g.icond(), g.iexpr(d+1), g.iexpr(d+1))
	case 8:
		return fmt.Sprintf("min(%s, %s)", g.iexpr(d+1), g.iexpr(d+1))
	default:
		return fmt.Sprintf("(%s < %s)", g.iexpr(d+1), g.fexpr(d+1))
	}
}

// fexpr is a float-valued (or int-promoted) expression.
func (g *kernelGen) fexpr(d int) string {
	if d >= 3 {
		return []string{"f0", "f1", "f2", "1.5f"}[g.pick(4)]
	}
	switch g.pick(10) {
	case 0:
		return []string{"f0", "f1", "f2"}[g.pick(3)]
	case 1:
		return []string{"0.25f", "-2.0f", "3.5f", "0.0f"}[g.pick(4)]
	case 2:
		ops := []string{"+", "-", "*", "/"}
		return fmt.Sprintf("(%s %s %s)", g.fexpr(d+1), ops[g.pick(len(ops))], g.fexpr(d+1))
	case 3:
		return fmt.Sprintf("(%s * %s)", g.iexpr(d+1), g.fexpr(d+1))
	case 4:
		return fmt.Sprintf("(float)(%s)", g.iexpr(d+1))
	case 5:
		return fmt.Sprintf("fin[(%s) & 127]", g.iexpr(d+1))
	case 6:
		return fmt.Sprintf("pa[(%s) & 1][(%s) & 3]", g.iexpr(d+1), g.iexpr(d+1))
	case 7:
		return fmt.Sprintf("fma(%s, %s, %s)", g.fexpr(d+1), g.fexpr(d+1), g.fexpr(d+1))
	case 8:
		return fmt.Sprintf("(%s ? %s : %s)", g.icond(), g.fexpr(d+1), g.fexpr(d+1))
	default:
		return fmt.Sprintf("sqrt(fabs(%s))", g.fexpr(d+1))
	}
}

// TestVecRegatherPointerBlocks pins the re-gather of pointer registers: a
// private array re-declared while the group runs scattered gets one
// buffer per work-item, so the layout the register had from an earlier
// lockstep declaration (here: in the previous, non-divergent work-group)
// must not survive the re-gather at the barrier.
func TestVecRegatherPointerBlocks(t *testing.T) {
	tc := diffCase{
		name: "regather-private-array",
		src: `__kernel void rg(__global float* out, __global int* sel) {
		  const int g = get_global_id(0);
		  float y = 0.0f;
		  for (int it = 0; it < 3; it++) {
		    if (sel[g] > it + 1) { y += 1.0f; }
		    float pa[2][4];
		    pa[1][it] = (float)(g * 10 + it) + y;
		    barrier(0);
		    out[g] += pa[1][it];
		  }
		}`,
		kernel: "rg",
		global: [2]int64{16, 0}, local: [2]int64{4, 0},
		bufs: []int{16, -16},
	}
	compareRuns(t, oclc.EngineVMVec, runDiffCase(t, tc, oclc.EngineWalk), runDiffCase(t, tc, oclc.EngineVMVec))
}
