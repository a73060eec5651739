package oclc

import (
	"sync"
	"testing"
)

func TestLaunchConfigGeometry(t *testing.T) {
	c := NDRange2D(64, 32, 8, 4)
	if c.Dims() != 2 {
		t.Fatalf("dims = %d", c.Dims())
	}
	if c.WorkGroupSize() != 32 {
		t.Fatalf("wg size = %d", c.WorkGroupSize())
	}
	if c.NumGroups() != 8*8 {
		t.Fatalf("groups = %d", c.NumGroups())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	one := NDRange1D(16, 4)
	if one.Dims() != 1 || one.NumGroups() != 4 {
		t.Fatal("1-D geometry wrong")
	}
}

func TestLaunchConfigValidate(t *testing.T) {
	bad := NDRange1D(10, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("3 does not divide 10")
	}
	neg := LaunchConfig{Global: [3]int64{0, 1, 1}, Local: [3]int64{1, 1, 1}}
	if err := neg.Validate(); err == nil {
		t.Fatal("zero global must fail")
	}
}

func TestCyclicBarrierReleasesAll(t *testing.T) {
	const n = 8
	b := newCyclicBarrier(n)
	var wg sync.WaitGroup
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer b.leave()
			for round := 0; round < 5; round++ {
				counts[i]++
				b.await()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("participant %d completed %d rounds", i, c)
		}
	}
}

func TestCyclicBarrierDivergenceRelease(t *testing.T) {
	// 3 participants block at the barrier, then the 4th leaves without
	// ever reaching it: the barrier must release the waiters, not
	// deadlock. The leaver waits until all three are provably blocked so
	// the scenario is deterministic.
	b := newCyclicBarrier(4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.leave()
			b.await()
		}()
	}
	for {
		b.mu.Lock()
		w := b.count.waiting
		b.mu.Unlock()
		if w == 3 {
			break
		}
	}
	b.leave() // the 4th exits without awaiting
	wg.Wait()
}

// TestBarrierCountRule pins the barrier rule shared by every engine: the
// last live arriver releases without flagging divergence, and a finisher
// that leaves every other live party waiting releases them and flags it.
func TestBarrierCountRule(t *testing.T) {
	b := barrierCount{parties: 3}
	for round := 0; round < 2; round++ {
		if b.arrive() || b.arrive() {
			t.Fatalf("round %d: released before the last arrival", round)
		}
		if !b.arrive() {
			t.Fatalf("round %d: last arrival did not release", round)
		}
	}
	if b.leave() {
		t.Fatal("a leave with nobody waiting released")
	}
	if b.divergent {
		t.Fatal("uniform rounds and a quiet leave flagged divergence")
	}
	// Two parties left: one waits, the other finishes.
	if b.arrive() {
		t.Fatal("released with a party still running")
	}
	if !b.leave() || !b.divergent {
		t.Fatalf("finisher did not release the waiter with divergence: %+v", b)
	}
	if b.waiting != 0 || b.parties != 1 {
		t.Fatalf("after the divergent release: %+v, want 1 party, none waiting", b)
	}
	b.rebase(4)
	if b.parties != 4 || b.waiting != 0 || !b.divergent {
		t.Fatalf("rebase must reset the counts and keep the flag: %+v", b)
	}
}

func TestGroupDecodeOrder(t *testing.T) {
	// Work-group ids must decode row-major over a 2-D grid: group g maps
	// to (gx, gy) = (g % ngx, (g / ngx) % ngy).
	src := `
__kernel void ids(__global float* out, const int ngx) {
  if (get_local_id(0) == 0 && get_local_id(1) == 0) {
    out[get_group_id(1)*ngx + get_group_id(0)] = 1.0f;
  }
}`
	prog, err := Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := NewGlobalMemory(1, KFloat, 4, 6)
	_, err = prog.Launch("ids", []Arg{BufArg(out), IntArg(3)},
		NDRange2D(6, 4, 2, 2), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 1 {
			t.Fatalf("group cell %d not visited", i)
		}
	}
}

func TestGemmCounterAccounting(t *testing.T) {
	// One full XgemmDirect-shaped accounting check on a tiny tile: with
	// WGD=4, MDIMCD=NDIMCD=2 (4 threads), K=4 and one work-group, the
	// compute loop performs exactly WGD*WGD*WGD = 64 FMAs per group.
	src := `
__kernel void mini(__global float* a, __global float* b, __global float* c) {
  __local float alm[WGD][WGD];
  __local float blm[WGD][WGD];
  const int tm = get_local_id(0);
  const int tn = get_local_id(1);
  for (int i = 0; i < WGD/2; i++) {
    alm[tm][tn*2 + i % 2] = a[tm*WGD + tn];
    blm[tm][tn*2 + i % 2] = b[tm*WGD + tn];
  }
  barrier(CLK_LOCAL_MEM_FENCE);
  float acc[WGD/2][WGD/2];
  for (int mi = 0; mi < WGD/2; mi++) {
    for (int ni = 0; ni < WGD/2; ni++) { acc[mi][ni] = 0.0f; }
  }
  for (int k = 0; k < WGD; k++) {
    for (int mi = 0; mi < WGD/2; mi++) {
      for (int ni = 0; ni < WGD/2; ni++) {
        acc[mi][ni] = fma(alm[k][mi*2+tm], blm[k][ni*2+tn], acc[mi][ni]);
      }
    }
  }
  c[tm*WGD + tn] = acc[0][0];
}`
	prog, err := Compile(src, map[string]string{"WGD": "4"})
	if err != nil {
		t.Fatal(err)
	}
	a := NewGlobalMemory(1, KFloat, 4, 16)
	b := NewGlobalMemory(2, KFloat, 4, 16)
	c := NewGlobalMemory(3, KFloat, 4, 16)
	res, err := prog.Launch("mini", []Arg{BufArg(a), BufArg(b), BufArg(c)},
		NDRange2D(2, 2, 2, 2), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 WIs × (WGD × (WGD/2)² FMAs) = 4 × 4×4 = 64.
	if res.Counters.FMAs != 64 {
		t.Fatalf("FMAs = %d, want 64", res.Counters.FMAs)
	}
	if res.Counters.Barriers != 4 {
		t.Fatalf("barriers = %d, want 4 (one per WI)", res.Counters.Barriers)
	}
	if res.Counters.LocalStores == 0 || res.Counters.LocalLoads == 0 {
		t.Fatal("local traffic not counted")
	}
}
