package oclc

import (
	"fmt"
	"sync"
)

// LaunchConfig is the NDRange of a kernel invocation. Unused dimensions
// must be 1.
type LaunchConfig struct {
	Global [3]int64
	Local  [3]int64
}

// NDRange1D builds a 1-D launch configuration.
func NDRange1D(global, local int64) LaunchConfig {
	return LaunchConfig{Global: [3]int64{global, 1, 1}, Local: [3]int64{local, 1, 1}}
}

// NDRange2D builds a 2-D launch configuration.
func NDRange2D(gx, gy, lx, ly int64) LaunchConfig {
	return LaunchConfig{Global: [3]int64{gx, gy, 1}, Local: [3]int64{lx, ly, 1}}
}

// Dims returns the number of used dimensions.
func (c LaunchConfig) Dims() int {
	d := 1
	if c.Global[1] > 1 || c.Local[1] > 1 {
		d = 2
	}
	if c.Global[2] > 1 || c.Local[2] > 1 {
		d = 3
	}
	return d
}

// WorkGroupSize returns the number of work-items per work-group.
func (c LaunchConfig) WorkGroupSize() int64 {
	return c.Local[0] * c.Local[1] * c.Local[2]
}

// NumGroups returns the total number of work-groups.
func (c LaunchConfig) NumGroups() int64 {
	return (c.Global[0] / c.Local[0]) * (c.Global[1] / c.Local[1]) * (c.Global[2] / c.Local[2])
}

// Validate enforces the OpenCL NDRange rules the paper's constraints deal
// with: positive sizes and local dividing global in every dimension.
func (c LaunchConfig) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Global[d] <= 0 || c.Local[d] <= 0 {
			return fmt.Errorf("oclc: non-positive NDRange in dimension %d", d)
		}
		if c.Global[d]%c.Local[d] != 0 {
			return fmt.Errorf("oclc: local size %d does not divide global size %d in dimension %d (CL_INVALID_WORK_GROUP_SIZE)",
				c.Local[d], c.Global[d], d)
		}
	}
	return nil
}

// Arg is a kernel argument: a scalar or a buffer.
type Arg struct {
	Scalar *rvalExport
	Buf    *Memory
}

// rvalExport is the exported face of a scalar argument.
type rvalExport struct {
	Kind ValKind
	I    int64
	F    float64
}

// IntArg builds an integer scalar argument.
func IntArg(v int64) Arg { return Arg{Scalar: &rvalExport{Kind: KInt, I: v}} }

// FloatArg builds a floating scalar argument.
func FloatArg(v float64) Arg { return Arg{Scalar: &rvalExport{Kind: KFloat, F: v}} }

// BufArg wraps a buffer argument.
func BufArg(m *Memory) Arg { return Arg{Buf: m} }

// ExecOptions tunes a launch.
type ExecOptions struct {
	// SampleGroups, when positive, executes only the first N work-groups —
	// the profiling mode used during tuning, where the timing model
	// extrapolates to the full NDRange. Zero executes everything
	// (functional mode, used for correctness checks).
	SampleGroups int
	// RecordAccesses attaches an address log to the first executed
	// work-group for the coalescing analysis.
	RecordAccesses bool
	// Engine selects the execution engine for this launch; EngineDefault
	// uses the process default (SetDefaultEngine). vm-vec silently falls
	// back to the walker when the program has no bytecode (bare Parse, or
	// lowering bailed out).
	Engine Engine
}

// ExecResult is the outcome of a launch.
type ExecResult struct {
	// Counters aggregates the executed work-items' dynamic operations.
	Counters Counters
	// PerWI is Counters scaled down to one average work-item.
	GroupsExecuted int64
	WIsExecuted    int64
	// Log holds the first sampled work-group's global-access trace when
	// ExecOptions.RecordAccesses was set.
	Log *AccessLog
	// Divergent reports that some work-item skipped a barrier other
	// work-items entered (undefined behaviour in OpenCL; the simulator
	// releases the barrier and flags it).
	Divergent bool
	// LocalBytes is the largest per-work-group __local allocation seen;
	// the performance model derives occupancy limits from it.
	LocalBytes int64
}

// wgCtx is the shared state of one executing work-group.
type wgCtx struct {
	launch  LaunchConfig
	grp     [3]int64
	barrier *cyclicBarrier
	log     *AccessLog

	mu     sync.Mutex
	locals map[*VarDecl]*Memory
	nextID int
}

// localAlloc returns the work-group-shared allocation for a __local
// declaration, creating it on first use. All work-items of the group see
// the same memory, as on a real device.
func (g *wgCtx) localAlloc(d *VarDecl, elem ValKind, elemBytes int, n int64) (*Memory, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.locals[d]; ok {
		if int64(len(m.Data)) != n {
			return nil, fmt.Errorf("oclc: __local %q allocated with differing sizes across work-items", d.Name)
		}
		return m, nil
	}
	g.nextID++
	m := &Memory{ID: 1<<20 + g.nextID, Space: SpaceLocal, Elem: elem, ElemBytes: elemBytes, Data: make([]float64, n)}
	g.locals[d] = m
	return m, nil
}

// LocalBytes reports the group's total __local allocation in bytes.
func (g *wgCtx) LocalBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var b int64
	for _, m := range g.locals {
		b += int64(len(m.Data) * m.ElemBytes)
	}
	return b
}

// Launch executes a kernel over the NDRange. Groups run sequentially (the
// simulated clock, not host parallelism, models device concurrency); a
// group's work-items run on the VM scheduler, or on the walker as
// goroutines synchronized by a cyclic barrier.
func (p *Program) Launch(kernelName string, args []Arg, cfg LaunchConfig, opts ExecOptions) (*ExecResult, error) {
	fn, err := p.Kernel(kernelName)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("oclc: kernel %q expects %d arguments, got %d", kernelName, len(fn.Params), len(args))
	}

	res := &ExecResult{}
	ngx := cfg.Global[0] / cfg.Local[0]
	ngy := cfg.Global[1] / cfg.Local[1]
	ngz := cfg.Global[2] / cfg.Local[2]
	total := ngx * ngy * ngz
	limit := total
	if opts.SampleGroups > 0 && int64(opts.SampleGroups) < total {
		limit = int64(opts.SampleGroups)
	}

	var vc *vmCode
	if opts.Engine.resolve() == EngineVMVec {
		vc = fn.vm
	}

	// Per-group scratch is hoisted out of the group loop: the aggregation
	// buffers are reset and reused, so counter totals (and allocation
	// behaviour) are invariant in the number of work-groups.
	n := int(cfg.WorkGroupSize())
	counters := make([]Counters, n)
	errs := make([]error, n)
	var sched *vmScheduler
	if vc != nil {
		sched = newVMScheduler(p, fn, vc, args, n)
		defer sched.release()
	}

	var localBytes, vmInstrs int64
	for g := int64(0); g < limit; g++ {
		gz := g / (ngx * ngy)
		gy := (g / ngx) % ngy
		gx := g % ngx
		wg := &wgCtx{
			launch: cfg,
			grp:    [3]int64{gx, gy, gz},
			locals: make(map[*VarDecl]*Memory),
		}
		if opts.RecordAccesses && g == 0 {
			wg.log = NewAccessLog(int(cfg.WorkGroupSize()))
			res.Log = wg.log
		}
		var divergent bool
		if sched != nil {
			var ic int64
			divergent, ic, err = sched.runGroup(wg, &res.Counters, counters, errs)
			vmInstrs += ic
		} else {
			divergent, err = p.runGroup(fn, args, wg, &res.Counters, counters, errs)
		}
		if err != nil {
			return nil, err
		}
		if divergent {
			res.Divergent = true
		}
		if b := wg.LocalBytes(); b > localBytes {
			localBytes = b
		}
		res.GroupsExecuted++
		res.WIsExecuted += cfg.WorkGroupSize()
	}
	res.LocalBytes = localBytes
	if vmInstrs > 0 {
		mVMInstructions.Add(uint64(vmInstrs))
	}
	return res, nil
}

// runGroup executes all work-items of one group on the tree-walking
// engine. counters and errs are caller-owned scratch of WorkGroupSize
// length, reset here.
func (p *Program) runGroup(fn *Function, args []Arg, wg *wgCtx, agg *Counters, counters []Counters, errs []error) (bool, error) {
	n := wg.launch.WorkGroupSize()
	wg.barrier = newCyclicBarrier(int(n))

	for i := int64(0); i < n; i++ {
		counters[i] = Counters{}
		errs[i] = nil
	}
	var done sync.WaitGroup
	lin := 0
	for lz := int64(0); lz < wg.launch.Local[2]; lz++ {
		for ly := int64(0); ly < wg.launch.Local[1]; ly++ {
			for lx := int64(0); lx < wg.launch.Local[0]; lx++ {
				w := &wiCtx{
					prog:  p,
					wg:    wg,
					frame: make([]rval, fn.NumSlots),
					ctr:   &counters[lin],
					lid:   [3]int64{lx, ly, lz},
					gid: [3]int64{
						wg.grp[0]*wg.launch.Local[0] + lx,
						wg.grp[1]*wg.launch.Local[1] + ly,
						wg.grp[2]*wg.launch.Local[2] + lz,
					},
					lin: lin,
				}
				for i, a := range args {
					w.frame[fn.Params[i].Slot] = argToRval(a)
				}
				done.Add(1)
				go func(w *wiCtx, slot int) {
					defer done.Done()
					defer wg.barrier.leave()
					defer func() {
						if r := recover(); r != nil {
							errs[slot] = fmt.Errorf("oclc: work-item panic: %v", r)
						}
					}()
					_, _, err := w.execStmt(fn.Body)
					errs[slot] = err
				}(w, lin)
				lin++
			}
		}
	}
	done.Wait()

	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	barriers := make([]int64, len(counters))
	for i := range counters {
		agg.Add(&counters[i])
		barriers[i] = counters[i].Barriers
	}
	return replayDivergence(barriers), nil
}

// replayDivergence is the divergence flag of a group whose work-item i
// arrived at barriers[i] barriers before it finished, under the VM
// scheduler's cooperative protocol (runScalar): passes over the runnable
// work-items in linear local id order, each running to its next barrier or
// its end, meeting at a barrierCount. The walker's goroutines meet at a
// free-running cyclicBarrier, whose own flag would depend on which
// goroutine gets there first; replaying the per-item barrier counts makes
// the walker's flag deterministic and equal to the VM's.
func replayDivergence(barriers []int64) bool {
	left := append([]int64(nil), barriers...)
	status := make([]vmStatus, len(left))
	bar := barrierCount{parties: len(left)}
	for live := len(left); live > 0; {
		for i := range status {
			if status[i] != vmRunning {
				continue
			}
			var released bool
			if left[i] > 0 {
				left[i]--
				status[i] = vmWaiting
				released = bar.arrive()
			} else {
				status[i] = vmDone
				live--
				released = bar.leave()
			}
			if released {
				for j := range status {
					if status[j] == vmWaiting {
						status[j] = vmRunning
					}
				}
			}
		}
	}
	return bar.divergent
}

func argToRval(a Arg) rval {
	if a.Buf != nil {
		return rval{k: KPtr, mem: a.Buf}
	}
	if a.Scalar.Kind == KFloat {
		return floatVal(a.Scalar.F)
	}
	return intVal(a.Scalar.I)
}

// barrierCount is the one work-group barrier rule every engine follows:
// parties work-items owe the current barrier an event, either an arrival
// (arrive) or finishing execution (leave). The barrier releases when the
// last live party arrives, or when a finisher leaves every other live
// party waiting — divergent control flow, undefined behaviour in OpenCL,
// which the simulator degrades into a flagged release instead of a
// deadlock. Callers keep their own work-item status bookkeeping and wake
// their waiters when arrive or leave reports a release.
type barrierCount struct {
	parties   int
	waiting   int
	divergent bool // sticky: some release was a divergent one
}

// rebase restarts the count at a point where nobody waits and parties
// work-items owe the barrier an event; the divergence flag is kept.
func (b *barrierCount) rebase(parties int) {
	b.parties, b.waiting = parties, 0
}

// arrive counts one waiter and reports whether the barrier released.
func (b *barrierCount) arrive() bool {
	b.waiting++
	if b.waiting >= b.parties {
		b.waiting = 0
		return true
	}
	return false
}

// leave retires a finished party and reports whether that released the
// waiters, which flags divergence.
func (b *barrierCount) leave() bool {
	b.parties--
	if b.parties > 0 && b.waiting >= b.parties {
		b.divergent = true
		b.waiting = 0
		return true
	}
	return false
}

// cyclicBarrier synchronizes the walker's work-item goroutines of one
// group under barrierCount's rule. A work-item that finishes execution
// leaves the barrier so that divergent control flow degrades into a
// release instead of a deadlock.
type cyclicBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count barrierCount
	gen   int
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{count: barrierCount{parties: n}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all remaining participants arrive.
func (b *cyclicBarrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count.arrive() {
		b.release()
		return
	}
	g := b.gen
	for g == b.gen {
		b.cond.Wait()
	}
}

// leave removes a finished work-item from the participant set, releasing
// the barrier if everyone else is already waiting.
func (b *cyclicBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count.leave() {
		b.release()
	}
}

// release opens the current generation; callers hold the lock.
func (b *cyclicBarrier) release() {
	b.gen++
	b.cond.Broadcast()
}
