package oclc

import (
	"strings"
	"testing"
)

const vmTestKernel = `
__kernel void k(const int n, __global float* out) {
  const int g = get_global_id(0);
  float acc = 0.0f;
  for (int i = 0; i < n; i++) {
    if (MODE == 1) { acc += (float)(i) * 0.5f; } else { acc -= 1.0f; }
  }
  out[g] = acc;
}`

// TestLoweringProducesBytecode pins that Compile actually lowers kernels
// to specialized bytecode: a silent fallback to the walker would make
// every engine benchmark and ablation measure the same thing, and an
// unfolded define would re-test MODE on every iteration.
func TestLoweringProducesBytecode(t *testing.T) {
	prog, err := Compile(vmTestKernel, map[string]string{"MODE": "1"})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := prog.Kernel("k")
	if err != nil {
		t.Fatal(err)
	}
	if fn.vm == nil || len(fn.vm.code) == 0 {
		t.Fatal("Compile did not produce specialized bytecode")
	}
	// The MODE == 1 test folds away with its dead else-arm: the only
	// conditional branch left is the loop's, and nothing of "acc -= 1.0f"
	// (a subtraction) survives.
	var condBranches int
	for _, in := range fn.vm.code {
		switch in.op {
		case opJumpFalse, opJumpTrue, opBrCmpFalse, opBrCmpFalseImm:
			condBranches++
		case opSub, opSubImm, opRSubImm:
			t.Errorf("dead else-arm lowered: %v at instruction %+v", in.op, in)
		}
	}
	if condBranches != 1 {
		t.Errorf("specialized code holds %d conditional branches, want 1 (the loop's)", condBranches)
	}
	if fn.vm.numRegs < fn.NumSlots {
		t.Errorf("numRegs %d < NumSlots %d", fn.vm.numRegs, fn.NumSlots)
	}
}

// TestBareParseFallsBackToWalker pins the escape hatch: programs built
// via Parse (no define set) have no bytecode, and a VM launch silently
// uses the walker instead of failing.
func TestBareParseFallsBackToWalker(t *testing.T) {
	prog, err := Parse(`__kernel void k(__global float* out) { out[0] = 7.0f; }`)
	if err != nil {
		t.Fatal(err)
	}
	out := NewGlobalMemory(1, KFloat, 4, 4)
	res, err := prog.Launch("k", []Arg{BufArg(out)}, NDRange1D(1, 1),
		ExecOptions{Engine: EngineVMVec})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 7 || res.WIsExecuted != 1 {
		t.Fatalf("fallback run wrong: out=%v res=%+v", out.Data[0], res)
	}
}

// TestCountersWorkGroupInvariant pins the hoisted per-group aggregation
// scratch: totals must scale exactly linearly in the number of
// work-groups, under both engines.
func TestCountersWorkGroupInvariant(t *testing.T) {
	prog, err := Compile(vmTestKernel, map[string]string{"MODE": "1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineWalk, EngineVMVec} {
		var perGroup Counters
		for i, groups := range []int64{1, 2, 8} {
			out := NewGlobalMemory(1, KFloat, 4, int(groups*4))
			res, err := prog.Launch("k", []Arg{IntArg(5), BufArg(out)},
				NDRange1D(groups*4, 4), ExecOptions{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Counters
			if i == 0 {
				perGroup = got
				continue
			}
			want := Counters{}
			for g := int64(0); g < groups; g++ {
				want.Add(&perGroup)
			}
			if got != want {
				t.Fatalf("%v: %d groups: counters %+v, want %d x %+v", eng, groups, got, groups, perGroup)
			}
		}
	}
}

// TestVMInstructionMetric pins that VM launches retire instructions into
// the observability counter and walker launches do not.
func TestVMInstructionMetric(t *testing.T) {
	prog, err := Compile(vmTestKernel, map[string]string{"MODE": "0"})
	if err != nil {
		t.Fatal(err)
	}
	out := NewGlobalMemory(1, KFloat, 4, 4)
	args := []Arg{IntArg(3), BufArg(out)}

	before := mVMInstructions.Value()
	if _, err := prog.Launch("k", args, NDRange1D(4, 4), ExecOptions{Engine: EngineWalk}); err != nil {
		t.Fatal(err)
	}
	if got := mVMInstructions.Value(); got != before {
		t.Fatalf("walker launch retired %d VM instructions", got-before)
	}
	if _, err := prog.Launch("k", args, NDRange1D(4, 4), ExecOptions{Engine: EngineVMVec}); err != nil {
		t.Fatal(err)
	}
	if got := mVMInstructions.Value(); got <= before {
		t.Fatal("VM launch did not retire instructions")
	}
}

func TestEngineParseAndDefault(t *testing.T) {
	cases := map[string]Engine{
		"": EngineDefault, "default": EngineDefault,
		"walk":   EngineWalk,
		"vm-vec": EngineVMVec, "vec": EngineVMVec,
	}
	for s, want := range cases {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, gone := range []string{"jit", "vm", "vm-nospec", "nospec"} {
		if _, err := ParseEngine(gone); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("ParseEngine(%s) err = %v", gone, err)
		}
	}

	prev := DefaultEngine()
	defer SetDefaultEngine(prev)
	SetDefaultEngine(EngineWalk)
	if DefaultEngine() != EngineWalk {
		t.Fatal("SetDefaultEngine(walk) not visible")
	}
	// EngineDefault resolves to the vectorized VM, never to itself.
	SetDefaultEngine(EngineDefault)
	if DefaultEngine() != EngineVMVec {
		t.Fatalf("SetDefaultEngine(default) resolved to %v, want vm-vec", DefaultEngine())
	}
	if got := EngineDefault.resolve(); got != EngineVMVec {
		t.Fatalf("resolve() = %v, want vm-vec", got)
	}
}

// TestStaticKindElision pins the kind-inference optimization: a kernel
// whose scalars all have statically known kinds must lower without any
// opStoreVar/opConvert for its loop counters and compound assignments.
func TestStaticKindElision(t *testing.T) {
	src := `
__kernel void k(__global float* out) {
  int kwg = 0;
  float acc = 0.25f;
  for (int i = 0; i < 8; i++) {
    kwg += 4;
    acc = acc * 0.5f + kwg;
  }
  out[get_global_id(0)] = acc + kwg;
}`
	prog, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel("k")
	if fn.vm == nil {
		t.Fatal("no bytecode")
	}
	var stores, converts int
	for _, in := range fn.vm.code {
		switch in.op {
		case opStoreVar:
			stores++
		case opConvert:
			converts++
		}
	}
	if stores != 0 || converts != 0 {
		t.Errorf("kind inference left %d opStoreVar and %d opConvert in:\n%s",
			stores, converts, src)
	}
	// And the result must still be right.
	out := NewGlobalMemory(1, KFloat, 4, 2)
	if _, err := prog.Launch("k", []Arg{BufArg(out)}, NDRange1D(2, 2), ExecOptions{Engine: EngineVMVec}); err != nil {
		t.Fatal(err)
	}
	acc, kwg := 0.25, 0
	for i := 0; i < 8; i++ {
		kwg += 4
		acc = acc*0.5 + float64(kwg)
	}
	if want := acc + float64(kwg); out.Data[0] != want {
		t.Fatalf("out[0] = %v, want %v", out.Data[0], want)
	}
}

// TestCompileCacheMetrics pins the process-wide compile-cache hit and
// miss counters (atf_oclc_compile_cache_{hits,misses}_total) that the
// repository benchmark and /metrics read.
func TestCompileCacheMetrics(t *testing.T) {
	src := `__kernel void k(__global float* o) { o[0] = (float)(T); }`
	defs := map[string]string{"T": "321"}
	m0, h0 := mCompileMisses.Value(), mCompileHits.Value()
	if _, err := CompileCached(src, defs); err != nil {
		t.Fatal(err)
	}
	if got := mCompileMisses.Value(); got != m0+1 {
		t.Fatalf("miss counter = %d, want %d", got, m0+1)
	}
	if _, err := CompileCached(src, defs); err != nil {
		t.Fatal(err)
	}
	if got := mCompileHits.Value(); got != h0+1 {
		t.Fatalf("hit counter = %d, want %d", got, h0+1)
	}
}
