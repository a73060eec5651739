package oclc

// Lockstep-vectorized work-group execution (EngineVMVec).
//
// The per-item frame interpreter (vmWI.run, vm.go) runs a whole work-group
// on one goroutine, but it pays one full dispatch loop per work-item: for
// a 64-item group, every instruction is fetched, decoded, and switched on
// 64 times. This engine executes the group in lockstep instead — one
// dispatch per instruction per *group* — over structure-of-arrays
// register files (vmRegs, vm.go) of the group's width w:
//
//   - one kind per register, shared by all lanes;
//   - one payload column per register: register r of lane l is the 8-byte
//     word val[r*w+l] (int64 or float64 bits), so each operand index
//     addresses a contiguous, pointer-free [w]uint64 column and the
//     per-lane work inside a case is a tight loop over machine words;
//   - per-lane pointer descriptors (buffer, second-dimension extent) in a
//     side table that only registers which ever hold a pointer get.
//
// Kind-dependent decisions (float-vs-int promotion, opStoreVar's target
// kind, pointer checks) are made once per instruction from the register
// kinds, outside the lane loops. When every lane is active the hot
// opcodes run a dense loop over the columns instead of indexing through
// the active-lane list.
//
// Divergence. Lockstep only works while every active lane agrees on the
// next instruction. The only instructions that can disagree are the
// conditional branches (opJumpFalse/opJumpTrue/opBrCmpFalse*). Branches
// the compiler proved work-item-ID-independent (uniform.go) carry a hint
// and are decided once per group; unhinted branches evaluate the condition
// per lane — side-effect-free — and, when lanes disagree, the group
// *scatters*: each live lane's payload words, the register kinds and the
// lane's pointer descriptors are copied into the ordinary per-item vmWI
// frames (w = 1 files of the same layout, with the branch itself
// unexecuted) and the scalar cooperative scheduler takes over. At the next
// barrier release the scheduler attempts to *re-gather*: if the lanes
// converged back to an identical frame stack with per-register kind
// agreement — one comparison of the kind slices per frame — their words
// are copied back into columns and lockstep resumes.
//
// Equivalence. Bit-for-bit agreement with the walker, and between the
// lockstep and the scalar-frame execution of the same group, is
// load-bearing — differential_test.go compares buffers, Counters, error
// text, and the divergence flag across engines:
//
//   - Kind uniformity: starting from uniform frames, every register's
//     scalar kind is identical across active lanes after every
//     instruction — kernel arguments are group-uniform, every opcode
//     derives its result kind from operand kinds (never values), and
//     per-lane results (loads, queries, builtins) have kind fixed by the
//     instruction. This is what makes one kind per register exact, and
//     the re-gather check only needs per-register kind agreement, not
//     value agreement.
//   - Counters are per-lane either way; hoisting never skips a bump.
//   - The divergence flag: a work-item completing while others wait at
//     a barrier raises the walker's flag. In lockstep every active lane
//     completes or reaches a barrier together, so only the scalar
//     scheduler ever sees such a completion. A lane can die in lockstep
//     only by a runtime error, and any error fails the launch, which
//     then returns no ExecResult and so no flag: lockstep deaths need no
//     barrier bookkeeping, and a barrier all lanes reach in lockstep is
//     a counter bump.
//   - Memory effects: within one instruction lanes execute in ascending
//     lane order, the same order the scalar scheduler uses between
//     barriers. Cross-instruction interleaving differs, but that is only
//     observable by kernels racing on shared memory between barriers,
//     whose results are undefined under every engine.
//
// The one intentional divergence: a panic inside a vector instruction
// (defensive; real failures surface as errors) kills every active lane
// with the scalar frames' "work-item panic" error instead of just one,
// because half-executed column state cannot be attributed to a single
// lane.

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"atf/internal/obs"
)

// Vector-engine metrics (DESIGN.md §3c). Dispatch/instruction counts are
// accumulated in scheduler-local fields and published once per launch
// (vmScheduler.release); the mask-shape events are rare enough to hit the
// atomics directly.
var (
	mVecDispatches = obs.NewCounter("atf_oclc_vm_vec_dispatches_total",
		"Group-level instruction dispatches by the lockstep-vectorized engine")
	mVecInstructions = obs.NewCounter("atf_oclc_vm_vec_instructions_total",
		"Per-lane instructions retired in vector mode (mean active width = instructions/dispatches)")
	mVecFallbacks = obs.NewCounter("atf_oclc_vm_vec_fallbacks_total",
		"Scalar fallbacks: a work-group scattered to per-item frames on branch divergence")
	mVecRegathers = obs.NewCounter("atf_oclc_vm_vec_regathers_total",
		"Successful lane re-convergences back into lockstep at a barrier release")
	mVecLanesActive = obs.NewHistogram("atf_oclc_vm_vec_lanes_active",
		"Active lanes at vector-segment starts (group entry, lane deaths, re-gathers)",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
)

// vecFrame is one vectorized activation record: the register file for
// every lane of the group plus the shared resume point. Frames are pooled
// with the scheduler, register files included.
type vecFrame struct {
	fn   *Function
	vc   *vmCode
	regs vmRegs // w = group width
	ip   int
	dst  int32 // caller register receiving the return value
}

// runGroup executes one work-group on the calling goroutine: in lockstep
// where possible and on the scalar cooperative scheduler (runScalar)
// across divergent regions. Either way the group's barrier follows
// barrierCount's rule, the one the walker's cyclicBarrier follows too —
// including the divergence flag: a work-item finishing while others wait
// at a barrier marks divergence and releases them. Between barriers
// work-items advance in linear-local-id order; barrier-correct kernels
// cannot observe the difference from the walker's concurrent goroutines,
// and Counters are per-work-item either way.
func (s *vmScheduler) runGroup(wg *wgCtx, agg *Counters, counters []Counters, errs []error) (bool, int64, error) {
	fn, vc := s.fn, s.vc
	n := int(wg.launch.WorkGroupSize())
	s.initWIs(wg, counters, errs)
	wis := s.wis

	// Vector state: all lanes live, one segment, frame 0.
	s.width = n
	s.ctrs = counters
	s.laneErrs = errs
	s.bar = barrierCount{}
	s.lanesDirty = false
	s.segCtr = Counters{}
	s.laneActive = resize(s.laneActive, n)
	s.lanes = s.lanes[:0]
	for i := 0; i < n; i++ {
		s.laneActive[i] = true
		s.lanes = append(s.lanes, i)
	}
	if cap(s.vframes) < 1 {
		s.vframes = make([]vecFrame, 1, 4)
	}
	s.vframes = s.vframes[:1]
	f0 := &s.vframes[0]
	f0.fn, f0.vc, f0.ip, f0.dst = fn, vc, 0, 0
	// Frame-0 registers are reused across groups un-zeroed, as pooled
	// scalar frames are (pushFrame): arguments are rewritten here and
	// every other register is written before read.
	f0.regs.resetLanes(vc.numRegs, n)
	for i, a := range s.args {
		slot := int32(fn.Params[i].Slot)
		rv := argToRval(a)
		for l := 0; l < n; l++ {
			f0.regs.set(slot, l, rv)
		}
		if rv.k == KPtr {
			f0.regs.blk[slot] = sharedBlock(rv.mem, rv.dim1)
		}
	}

	startLE := s.vecLaneExecs
	mVecLanesActive.Observe(float64(n))
	for {
		if s.vecRun() {
			break // every lane finished or failed in lockstep
		}
		mVecFallbacks.Inc()
		s.scatter()
		if !s.runScalar() {
			break // group finished on the scalar scheduler
		}
		mVecRegathers.Inc()
		mVecLanesActive.Observe(float64(len(s.lanes)))
	}

	// Flush the final segment's batched counters into its surviving lanes
	// (dead lanes flushed at laneFail, scattered segments at scatter).
	for _, l := range s.lanes {
		counters[l].Add(&s.segCtr)
	}
	s.segCtr = Counters{}

	icount := s.vecLaneExecs - startLE
	for i := range wis {
		icount += wis[i].icount
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return false, icount, errs[i]
		}
	}
	for i := 0; i < n; i++ {
		agg.Add(&counters[i])
	}
	return s.bar.divergent, icount, nil
}

// laneFail kills one lane with err. The lane list is rebuilt lazily at the
// top of the dispatch loop so an instruction can fail several lanes while
// iterating the current list. The dying lane's share of the segment's
// batched counters is flushed here — the bump order inside each opcode
// decides whether the fatal instruction's increments are included.
func (s *vmScheduler) laneFail(l int, err error) {
	s.ctrs[l].Add(&s.segCtr)
	s.laneActive[l] = false
	s.laneErrs[l] = err
	wi := &s.wis[l]
	wi.err = err
	wi.status = vmDone
	s.lanesDirty = true
}

// failAll kills every active lane with err and reports the group done.
func (s *vmScheduler) failAll(err error) {
	for _, l := range s.lanes {
		s.laneFail(l, err)
	}
	s.rebuildLanes()
}

// rebuildLanes filters dead lanes out of the active list in place.
func (s *vmScheduler) rebuildLanes() {
	out := s.lanes[:0]
	for _, l := range s.lanes {
		if s.laneActive[l] {
			out = append(out, l)
		}
	}
	s.lanes = out
	s.lanesDirty = false
}

func cmpInts(kind int32, a, b int64) bool {
	switch kind {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default:
		return a >= b
	}
}

func cmpFloats(kind int32, a, b float64) bool {
	switch kind {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default:
		return a >= b
	}
}

// brCmpRes compares payloads l (kind kl) and r (kind kr) with C
// promotion.
func brCmpRes(kind int32, kl ValKind, l uint64, kr ValKind, r uint64) bool {
	if kl == KFloat || kr == KFloat {
		return cmpFloats(kind, wordF(l, kl), wordF(r, kr))
	}
	return cmpInts(kind, int64(l), int64(r))
}

// vecRun executes in lockstep until the group finishes (returns true) or
// an unhinted branch diverges (returns false, with the top frame's ip at
// the branch and no side effects applied — the scalar re-execution of the
// branch reproduces its counters). Instruction semantics transcribe
// vmWI.run case by case; kind-dependent decisions read the per-register
// kinds once per instruction (file comment).
func (s *vmScheduler) vecRun() (done bool) {
	w := s.width
	wis := s.wis
	var nd, nl int64
	defer func() {
		s.vecDispatches += nd
		s.vecLaneExecs += nl
		if r := recover(); r != nil {
			s.failAll(fmt.Errorf("oclc: work-item panic: %v", r))
			done = true
		}
	}()
frames:
	for {
		f := &s.vframes[len(s.vframes)-1]
		vc := f.vc
		code := vc.code
		regs := &f.regs
		kind := regs.kind
		ip := f.ip
		for {
			if s.lanesDirty {
				s.rebuildLanes()
				if len(s.lanes) == 0 {
					return true
				}
				mVecLanesActive.Observe(float64(len(s.lanes)))
			}
			lanes := s.lanes
			dense := len(lanes) == w
			in := &code[ip]
			nd++
			nl += int64(len(lanes))
			switch in.op {
			case opJump:
				ip = int(in.imm)
			case opJumpFalse, opJumpTrue:
				k, acol := kind[in.a], regs.col(in.a)
				t0 := wordTruthy(acol[lanes[0]], k)
				if in.d == 0 { // no uniformity hint: check lane agreement
					for _, l := range lanes[1:] {
						if wordTruthy(acol[l], k) != t0 {
							f.ip = ip
							return false
						}
					}
				}
				if t0 == (in.op == opJumpTrue) {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opReturn, opReturnNil:
				conv := (in.op == opReturn || in.imm == 1) && !f.fn.Ret.Ptr && f.fn.Ret.Kind != KVoid
				depth := len(s.vframes) - 1
				if depth == 0 {
					for _, l := range lanes {
						wis[l].status = vmDone
					}
					return true
				}
				caller := &s.vframes[depth-1].regs
				switch {
				case in.op == opReturnNil:
					rv := rval{}
					if conv {
						rv = convert(rv, f.fn.Ret.Kind)
					}
					for _, l := range lanes {
						caller.set(f.dst, l, rv)
					}
				case conv:
					caller.convertReg(f.dst, regs, in.a, f.fn.Ret.Kind, lanes)
				default:
					caller.copyReg(f.dst, regs, in.a, lanes)
				}
				s.vframes = s.vframes[:depth]
				continue frames
			case opErr:
				s.failAll(vc.errTab[in.imm])
				return true
			case opBarrier:
				// Every active lane arrives at once: a barrier in lockstep
				// is a counter bump — no suspension.
				s.segCtr.Barriers++
				ip++

			case opCtrInt:
				s.segCtr.IntOps += in.imm
				ip++
			case opCtrFloat:
				s.segCtr.FloatOps += in.imm
				ip++
			case opCtrBranch:
				s.segCtr.Branches += in.imm
				ip++
			case opCtrLoop:
				s.segCtr.LoopIters++
				ip++
			case opCtrUnroll:
				s.segCtr.UnrolledIters++
				ip++
			case opCount:
				s.segCtr.Add(&vc.countTab[in.imm])
				ip++

			case opConstI, opConstF:
				k, x := KInt, uint64(in.imm)
				if in.op == opConstF {
					k, x = KFloat, fbits(in.f)
				}
				acol := regs.col(in.a)
				if dense {
					for l := range acol {
						acol[l] = x
					}
				} else {
					for _, l := range lanes {
						acol[l] = x
					}
				}
				kind[in.a] = k
				ip++
			case opConstR:
				rv := vc.rvalTab[in.imm]
				for _, l := range lanes {
					regs.set(in.a, l, rv)
				}
				ip++
			case opMove:
				regs.copyReg(in.a, regs, in.b, lanes)
				ip++
			case opConvert:
				regs.convertReg(in.a, regs, in.b, ValKind(in.c), lanes)
				ip++
			case opBool, opNot:
				k, acol, bcol := kind[in.b], regs.col(in.a), regs.col(in.b)
				want := in.op == opBool
				if !want {
					s.segCtr.IntOps++
				}
				for _, l := range lanes {
					acol[l] = b2w(wordTruthy(bcol[l], k) == want)
				}
				kind[in.a] = KInt
				ip++
			case opStoreVar:
				regs.convertReg(in.a, regs, in.b, storeKind(kind[in.a]), lanes)
				ip++
			case opIncVar:
				kb, acol, bcol := kind[in.b], regs.col(in.a), regs.col(in.b)
				post := in.c != 0
				if post && kb == KPtr {
					// The old value is a pointer: its descriptor stays in
					// b's column while b becomes an int.
					ap, bp := regs.ptrs(in.a), regs.ptrs(in.b)
					for _, l := range lanes {
						ap[l] = bp[l]
					}
					regs.blk[in.a] = regs.blk[in.b]
				}
				nk := KInt
				if kb == KFloat {
					nk = KFloat
					s.segCtr.FloatOps++
					d := float64(in.imm)
					for _, l := range lanes {
						old := bcol[l]
						nv := fbits(math.Float64frombits(old) + d)
						bcol[l] = nv
						if post {
							acol[l] = old
						} else {
							acol[l] = nv
						}
					}
				} else {
					s.segCtr.IntOps++
					d := uint64(in.imm)
					switch {
					case dense && !post:
						bcol = bcol[:len(acol)]
						for l := range acol {
							bcol[l] += d
							acol[l] = bcol[l]
						}
					default:
						for _, l := range lanes {
							old := bcol[l]
							bcol[l] = old + d
							if post {
								acol[l] = old
							} else {
								acol[l] = old + d
							}
						}
					}
				}
				kind[in.b] = nk
				if post {
					kind[in.a] = kb
				} else {
					kind[in.a] = nk
				}
				ip++
			case opIncVal:
				kb, acol, bcol := kind[in.b], regs.col(in.a), regs.col(in.b)
				if kb == KFloat {
					s.segCtr.FloatOps++
					d := float64(in.imm)
					for _, l := range lanes {
						acol[l] = fbits(math.Float64frombits(bcol[l]) + d)
					}
					kind[in.a] = KFloat
				} else {
					s.segCtr.IntOps++
					d := uint64(in.imm)
					for _, l := range lanes {
						acol[l] = bcol[l] + d
					}
					kind[in.a] = KInt
				}
				ip++

			case opAdd, opSub, opMul:
				kb, kc := kind[in.b], kind[in.c]
				acol, bcol, ccol := regs.col(in.a), regs.col(in.b), regs.col(in.c)
				if kb == KFloat || kc == KFloat {
					s.segCtr.FloatOps++
					if kb == KFloat && kc == KFloat && dense {
						floatBinDense(in.op, acol, bcol, ccol)
					} else {
						for _, l := range lanes {
							x, y := wordF(bcol[l], kb), wordF(ccol[l], kc)
							var r float64
							switch in.op {
							case opAdd:
								r = x + y
							case opSub:
								r = x - y
							default:
								r = x * y
							}
							acol[l] = fbits(r)
						}
					}
					kind[in.a] = KFloat
				} else {
					s.segCtr.IntOps++
					if dense {
						intBinDense(in.op, acol, bcol, ccol)
					} else {
						for _, l := range lanes {
							x, y := bcol[l], ccol[l]
							switch in.op {
							case opAdd:
								acol[l] = x + y
							case opSub:
								acol[l] = x - y
							default:
								acol[l] = x * y
							}
						}
					}
					kind[in.a] = KInt
				}
				ip++
			case opDiv:
				kb, kc := kind[in.b], kind[in.c]
				acol, bcol, ccol := regs.col(in.a), regs.col(in.b), regs.col(in.c)
				if kb == KFloat || kc == KFloat {
					s.segCtr.FloatOps++
					for _, l := range lanes {
						acol[l] = fbits(wordF(bcol[l], kb) / wordF(ccol[l], kc))
					}
					kind[in.a] = KFloat
				} else {
					// The bump precedes the zero checks: a lane dying here
					// flushes with this instruction's IntOps included, as the
					// scalar frames count it.
					s.segCtr.IntOps++
					var zerr error
					for _, l := range lanes {
						if ccol[l] == 0 {
							if zerr == nil {
								zerr = errf(in.pos, "integer division by zero")
							}
							s.laneFail(l, zerr)
							continue
						}
						acol[l] = uint64(int64(bcol[l]) / int64(ccol[l]))
					}
					kind[in.a] = KInt
				}
				ip++
			case opMod:
				if kind[in.b] == KFloat || kind[in.c] == KFloat {
					s.failAll(errf(in.pos, "%% requires integer operands"))
					return true
				}
				acol, bcol, ccol := regs.col(in.a), regs.col(in.b), regs.col(in.c)
				s.segCtr.IntOps++
				var zerr error
				for _, l := range lanes {
					if ccol[l] == 0 {
						if zerr == nil {
							zerr = errf(in.pos, "integer modulo by zero")
						}
						s.laneFail(l, zerr)
						continue
					}
					acol[l] = uint64(int64(bcol[l]) % int64(ccol[l]))
				}
				kind[in.a] = KInt
				ip++
			case opShl, opShr, opBitAnd, opBitOr, opBitXor:
				if kind[in.b] == KFloat || kind[in.c] == KFloat {
					s.failAll(errf(in.pos, "bitwise operator on float"))
					return true
				}
				acol, bcol, ccol := regs.col(in.a), regs.col(in.b), regs.col(in.c)
				s.segCtr.IntOps++
				op := in.op - opShl
				for _, l := range lanes {
					acol[l] = bitOp(op, int64(bcol[l]), int64(ccol[l]))
				}
				kind[in.a] = KInt
				ip++
			case opEq, opNe, opLt, opGt, opLe, opGe:
				kb, kc := kind[in.b], kind[in.c]
				acol, bcol, ccol := regs.col(in.a), regs.col(in.b), regs.col(in.c)
				cmp := int32(in.op - opEq)
				s.segCtr.IntOps++
				for _, l := range lanes {
					acol[l] = b2w(brCmpRes(cmp, kb, bcol[l], kc, ccol[l]))
				}
				kind[in.a] = KInt
				ip++

			default:
				nip, st := s.vecStep(in, f, lanes, ip)
				switch st {
				case stepDone:
					return true
				case stepDiverge:
					f.ip = ip
					return false
				case stepFrames:
					continue frames
				}
				ip = nip
			}
		}
	}
}

// floatBinDense and intBinDense are opAdd/opSub/opMul over whole columns
// (every lane active, float×float or int×int operands).
func floatBinDense(op opcode, a, b, c []uint64) {
	b, c = b[:len(a)], c[:len(a)]
	switch op {
	case opAdd:
		for l := range a {
			a[l] = fbits(math.Float64frombits(b[l]) + math.Float64frombits(c[l]))
		}
	case opSub:
		for l := range a {
			a[l] = fbits(math.Float64frombits(b[l]) - math.Float64frombits(c[l]))
		}
	default:
		for l := range a {
			a[l] = fbits(math.Float64frombits(b[l]) * math.Float64frombits(c[l]))
		}
	}
}

func intBinDense(op opcode, a, b, c []uint64) {
	b, c = b[:len(a)], c[:len(a)]
	switch op {
	case opAdd:
		for l := range a {
			a[l] = b[l] + c[l]
		}
	case opSub:
		for l := range a {
			a[l] = b[l] - c[l]
		}
	default:
		for l := range a {
			a[l] = b[l] * c[l]
		}
	}
}

// vecStep outcome for opcodes handled outside vecRun's main switch.
type vecStep int

const (
	stepNext    vecStep = iota // continue at the returned ip
	stepFrames                 // frame stack changed; re-enter the frame loop
	stepDone                   // every lane finished or failed
	stepDiverge                // unhinted branch disagreed; scatter
)

// vecStep executes the immediate-operand, branch, memory, and call opcodes
// — the long tail split out of vecRun to keep both switches compilable as
// dense jump tables.
func (s *vmScheduler) vecStep(in *instr, f *vecFrame, lanes []int, ip int) (int, vecStep) {
	w := s.width
	wis := s.wis
	vc := f.vc
	regs := &f.regs
	kind := regs.kind
	dense := len(lanes) == w
	switch in.op {
	case opAddImm, opSubImm, opRSubImm, opMulImm, opDivImm:
		acol, bcol := regs.col(in.a), regs.col(in.b)
		if kind[in.b] == KFloat {
			s.segCtr.FloatOps++
			y := float64(in.imm)
			for _, l := range lanes {
				x := math.Float64frombits(bcol[l])
				var r float64
				switch in.op {
				case opAddImm:
					r = x + y
				case opSubImm:
					r = x - y
				case opRSubImm:
					r = y - x
				case opMulImm:
					r = x * y
				default:
					r = x / y
				}
				acol[l] = fbits(r)
			}
			kind[in.a] = KFloat
		} else {
			s.segCtr.IntOps++
			y := in.imm
			switch {
			case in.op == opAddImm && dense:
				bcol = bcol[:len(acol)]
				for l := range acol {
					acol[l] = bcol[l] + uint64(y)
				}
			case in.op == opMulImm && dense:
				bcol = bcol[:len(acol)]
				for l := range acol {
					acol[l] = bcol[l] * uint64(y)
				}
			default:
				for _, l := range lanes {
					x := int64(bcol[l])
					var r int64
					switch in.op {
					case opAddImm:
						r = x + y
					case opSubImm:
						r = x - y
					case opRSubImm:
						r = y - x
					case opMulImm:
						r = x * y
					default:
						r = x / y
					}
					acol[l] = uint64(r)
				}
			}
			kind[in.a] = KInt
		}
	case opModImm:
		if kind[in.b] == KFloat {
			s.failAll(errf(in.pos, "%% requires integer operands"))
			return 0, stepDone
		}
		acol, bcol := regs.col(in.a), regs.col(in.b)
		s.segCtr.IntOps++
		for _, l := range lanes {
			acol[l] = uint64(int64(bcol[l]) % in.imm)
		}
		kind[in.a] = KInt
	case opShlImm, opShrImm, opBitAndImm, opBitOrImm, opBitXorImm:
		if kind[in.b] == KFloat {
			s.failAll(errf(in.pos, "bitwise operator on float"))
			return 0, stepDone
		}
		acol, bcol := regs.col(in.a), regs.col(in.b)
		s.segCtr.IntOps++
		op := in.op - opShlImm
		for _, l := range lanes {
			acol[l] = bitOp(op, int64(bcol[l]), in.imm)
		}
		kind[in.a] = KInt
	case opEqImm, opNeImm, opLtImm, opGtImm, opLeImm, opGeImm:
		kb, acol, bcol := kind[in.b], regs.col(in.a), regs.col(in.b)
		cmp := int32(in.op - opEqImm)
		s.segCtr.IntOps++
		for _, l := range lanes {
			acol[l] = b2w(brCmpRes(cmp, kb, bcol[l], KInt, uint64(in.imm)))
		}
		kind[in.a] = KInt
	case opBrCmpFalse, opBrCmpFalseImm:
		kl, lcol := kind[in.a], regs.col(in.a)
		kr, rimm := KInt, uint64(in.imm)
		var rcol []uint64
		if in.op == opBrCmpFalse {
			kr, rcol = kind[in.b], regs.col(in.b)
		}
		cmp := in.d & 0xff
		r0 := rimm
		if rcol != nil {
			r0 = rcol[lanes[0]]
		}
		res := brCmpRes(cmp, kl, lcol[lanes[0]], kr, r0)
		if in.d&brUniform == 0 { // no uniformity hint: check lane agreement
			for _, l := range lanes[1:] {
				rl := rimm
				if rcol != nil {
					rl = rcol[l]
				}
				if brCmpRes(cmp, kl, lcol[l], kr, rl) != res {
					return 0, stepDiverge
				}
			}
		}
		cb := (in.d >> 8) & 0xff
		s.segCtr.IntOps++
		if cb == cbIterBranch {
			s.segCtr.Branches++
		}
		if res {
			switch cb {
			case cbIterLoop:
				s.segCtr.LoopIters++
			case cbIterUnroll:
				s.segCtr.UnrolledIters++
			}
			return ip + 1, stepNext
		}
		return int(in.c), stepNext

	case opNeg:
		acol, bcol := regs.col(in.a), regs.col(in.b)
		if kind[in.b] == KFloat {
			s.segCtr.FloatOps++
			for _, l := range lanes {
				acol[l] = fbits(-math.Float64frombits(bcol[l]))
			}
			kind[in.a] = KFloat
		} else {
			s.segCtr.IntOps++
			for _, l := range lanes {
				acol[l] = -bcol[l]
			}
			kind[in.a] = KInt
		}
	case opBitNot:
		kb, acol, bcol := kind[in.b], regs.col(in.a), regs.col(in.b)
		s.segCtr.IntOps++
		for _, l := range lanes {
			acol[l] = uint64(^wordI(bcol[l], kb))
		}
		kind[in.a] = KInt

	case opCheckPtr:
		// The kind invariant makes a non-pointer group-wide, and pointer
		// registers never hold a nil buffer.
		if kind[in.a] != KPtr {
			s.failAll(errf(in.pos, "subscript of non-pointer value"))
			return 0, stepDone
		}
	case opCheck2D:
		if kind[in.a] != KPtr {
			s.failAll(errf(in.pos, "2-D subscript of 1-D array"))
			return 0, stepDone
		}
		ap := regs.ptrs(in.a)
		var err error
		for _, l := range lanes {
			if ap[l].dim1 <= 0 {
				if err == nil {
					err = errf(in.pos, "2-D subscript of 1-D array")
				}
				s.laneFail(l, err)
			}
		}
	case opLoad1, opLoad2, opStore1, opStore2:
		return s.vecMem(in, regs, lanes, ip)

	case opCheckDim:
		k, acol := kind[in.a], regs.col(in.a)
		for _, l := range lanes {
			if v := wordI(acol[l], k); v <= 0 {
				d := vc.declTab[in.imm]
				s.laneFail(l, fmt.Errorf("oclc: %s: array %q dimension %d is %d", d.Pos, d.Name, int(in.c), v))
			}
		}
	case opArray:
		d := vc.declTab[in.imm]
		twoD := in.c >= 0
		kb, bcol := kind[in.b], regs.col(in.b)
		var kc ValKind
		var ccol []uint64
		if twoD {
			kc, ccol = kind[in.c], regs.col(in.c)
		}
		dims := func(l int) (int64, int64) {
			var d1 int64
			if twoD {
				d1 = wordI(ccol[l], kc)
			}
			return wordI(bcol[l], kb), d1
		}
		if d.Type.Space != SpaceLocal && s.privateBlock(regs, in.a, d, twoD, lanes, dims) {
			break
		}
		for _, l := range lanes {
			d0, d1 := dims(l)
			mem, err := allocArray(&wis[l].w, d, d0, d1, twoD)
			if err != nil {
				s.laneFail(l, err)
				continue
			}
			regs.setPtr(in.a, l, mem, d1)
		}
		// __local tiles are one buffer shared by the group.
		if ap := regs.ptrs(in.a); !s.lanesDirty && d.Type.Space == SpaceLocal {
			m0 := ap[lanes[0]]
			if b := sharedBlock(m0.mem, m0.dim1); b.holdsAll(ap, lanes) {
				regs.blk[in.a] = b
			}
		}

	case opWIQuery:
		acol := regs.col(in.a)
		d := int(in.c)
		// Only the IDs vary by lane; every other query is group-uniform and
		// computed once.
		switch in.b {
		case wqGlobalID:
			for _, l := range lanes {
				acol[l] = uint64(wis[l].w.gid[d])
			}
		case wqLocalID:
			for _, l := range lanes {
				acol[l] = uint64(wis[l].w.lid[d])
			}
		default:
			v := uint64(wis[lanes[0]].w.query(int(in.b), d))
			for _, l := range lanes {
				acol[l] = v
			}
		}
		kind[in.a] = KInt
	case opFMA:
		kb, kc, kd := kind[in.b], kind[in.c], kind[in.d]
		acol, bcol, ccol, dcol := regs.col(in.a), regs.col(in.b), regs.col(in.c), regs.col(in.d)
		s.segCtr.FMAs++
		if dense && kb == KFloat && kc == KFloat && kd == KFloat {
			bcol, ccol, dcol = bcol[:len(acol)], ccol[:len(acol)], dcol[:len(acol)]
			for l := range acol {
				acol[l] = fbits(math.Float64frombits(bcol[l])*math.Float64frombits(ccol[l]) + math.Float64frombits(dcol[l]))
			}
		} else {
			for _, l := range lanes {
				acol[l] = fbits(wordF(bcol[l], kb)*wordF(ccol[l], kc) + wordF(dcol[l], kd))
			}
		}
		kind[in.a] = KFloat
	case opCallBuiltin:
		ab := resize(s.argBuf, int(in.c))
		s.argBuf = ab
		bfn := vc.builtins[in.imm]
		call := vc.callTab[in.imm]
		for _, l := range lanes {
			for i := range ab {
				ab[i] = regs.get(in.b+int32(i), l)
			}
			rv, err := bfn(&wis[l].w, call, ab)
			if err != nil {
				s.laneFail(l, err)
				continue
			}
			regs.set(in.a, l, rv)
		}
	case opCallFn:
		callee := vc.fnTab[in.imm]
		cvc := callee.vm
		s.segCtr.Calls++
		depth := len(s.vframes)
		if depth >= vmMaxDepth {
			s.failAll(errf(in.pos, "call depth exceeded"))
			return 0, stepDone
		}
		f.ip = ip + 1
		// Reuse the vector frame (and its register file) pooled at this
		// depth; reuse without zeroing is sound for the same reason as the
		// scalar frames — every register is written before read.
		if depth == cap(s.vframes) {
			s.vframes = append(s.vframes, vecFrame{})
		} else {
			s.vframes = s.vframes[:depth+1]
		}
		nf := &s.vframes[depth]
		nf.regs.resetLanes(cvc.numRegs, w)
		nf.fn, nf.vc, nf.ip, nf.dst = callee, cvc, 0, in.a
		// s.vframes may have moved: re-read the caller's file.
		caller := &s.vframes[depth-1].regs
		for i := range callee.Params {
			nf.regs.copyReg(int32(callee.Params[i].Slot), caller, in.b+int32(i), lanes)
		}
		return 0, stepFrames

	default:
		s.failAll(fmt.Errorf("oclc: unknown opcode %d", in.op))
		return 0, stepDone
	}
	return ip + 1, stepNext
}

// vecMem executes opLoad1/opLoad2/opStore1/opStore2 over the lanes.
// Operand roles: loads address through b (indices c[, d]) into a; stores
// address through a (indices b[, c]) from c or d.
func (s *vmScheduler) vecMem(in *instr, regs *vmRegs, lanes []int, ip int) (int, vecStep) {
	kind := regs.kind
	isLoad := in.op == opLoad1 || in.op == opLoad2
	is2D := in.op == opLoad2 || in.op == opStore2
	base, i0, i1, src := in.a, in.b, in.c, in.c
	if isLoad {
		base, i0, i1 = in.b, in.c, in.d
	} else if is2D {
		src = in.d
	}
	if kind[base] != KPtr {
		// The kind invariant makes a non-pointer base group-wide.
		s.failAll(errf(in.pos, "subscript of non-pointer value"))
		return 0, stepDone
	}
	var ix laneIndex
	ix.k0, ix.c0 = kind[i0], regs.col(i0)
	if is2D {
		ix.is2D = true
		ix.k1, ix.c1 = kind[i1], regs.col(i1)
	}
	// Space and element kind come from the same declaration on every lane
	// even when the buffers differ (private arrays), so the access
	// accounting and value dispatch hoist out of the lane loop.
	blk := &regs.blk[base]
	var bp []vmPtr
	m0 := blk.mem
	if m0 == nil {
		bp = regs.ptrs(base)
		m0 = bp[lanes[0]].mem
	}
	space := m0.Space
	var log *AccessLog
	if space == SpaceGlobal {
		log = s.wis[lanes[0]].w.wg.log
	}
	*spaceCounter(&s.segCtr, space, isLoad)++
	if is2D {
		s.segCtr.IntOps++ // row-major address computation
	}
	isF := m0.Elem == KFloat
	var acol, vcol []uint64
	var kv ValKind
	if isLoad {
		acol = regs.col(in.a)
		if isF {
			kind[in.a] = KFloat
		} else {
			kind[in.a] = KInt
		}
	} else {
		kv, vcol = kind[src], regs.col(src)
	}

	// Dense path: with every lane active and no access log, a register
	// with a block computes and checks all lanes' indices into the block
	// first and touches memory only if every lane passes; otherwise the
	// per-lane loop below reproduces the exact failure order.
	if blk.mem != nil && len(lanes) == s.width && log == nil {
		offs := resize(s.offBuf, s.width)
		s.offBuf = offs
		if ix.blockOffsets(blk, offs) {
			data := blk.data
			switch {
			case isLoad && isF:
				acol = acol[:len(offs)]
				for l, i := range offs {
					acol[l] = atomic.LoadUint64((*uint64)(unsafe.Pointer(&data[i])))
				}
			case isLoad:
				acol = acol[:len(offs)]
				for l, i := range offs {
					acol[l] = uint64(int64(math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&data[i]))))))
				}
			case isF && kv == KFloat:
				vcol = vcol[:len(offs)]
				for l, i := range offs {
					data[i] = math.Float64frombits(vcol[l])
				}
			case isF:
				vcol = vcol[:len(offs)]
				for l, i := range offs {
					data[i] = wordF(vcol[l], kv)
				}
			default:
				vcol = vcol[:len(offs)]
				for l, i := range offs {
					data[i] = float64(wordI(vcol[l], kv))
				}
			}
			return ip + 1, stepNext
		}
	}
	if bp == nil {
		bp = regs.ptrs(base)
	}

	site := int(in.imm)
	var dimerr error
	for _, l := range lanes {
		p := &bp[l]
		m := p.mem
		off, ok := ix.offset(p.dim1, l)
		if !ok {
			if dimerr == nil {
				dimerr = errf(in.pos, "2-D subscript of 1-D array")
			}
			s.laneFail(l, dimerr)
			// The scalar frames fail this lane before the address
			// computation and the access: undo the hoisted bumps the
			// flush just credited it with.
			c := &s.ctrs[l]
			c.IntOps--
			*spaceCounter(c, space, isLoad)--
			continue
		}
		if log != nil {
			log.record(site, l, byteAddr(m, off), !isLoad)
		}
		if uint64(off) >= uint64(len(m.Data)) {
			if isLoad {
				s.laneFail(l, m.rangeErr("load", off))
			} else {
				s.laneFail(l, m.rangeErr("store", off))
			}
			continue
		}
		switch {
		case isLoad && isF:
			acol[l] = fbits(m.loadCell(off))
		case isLoad:
			acol[l] = uint64(int64(m.loadCell(off)))
		case isF:
			m.Data[off] = wordF(vcol[l], kv)
		default:
			m.Data[off] = float64(wordI(vcol[l], kv))
		}
	}
	return ip + 1, stepNext
}

// laneIndex holds the subscript columns of one memory instruction with
// their kinds.
type laneIndex struct {
	is2D   bool
	k0, k1 ValKind
	c0, c1 []uint64
}

// offset is lane l's element offset into a buffer whose second-dimension
// extent is dim1; ok is false when a 2-D subscript meets a 1-D array.
func (ix *laneIndex) offset(dim1 int64, l int) (off int64, ok bool) {
	off = wordI(ix.c0[l], ix.k0)
	if ix.is2D {
		if dim1 <= 0 {
			return 0, false
		}
		off = off*dim1 + wordI(ix.c1[l], ix.k1)
	}
	return off, true
}

// blockOffsets fills offs with every lane's index into b.data, or reports
// false if some lane's subscript fails a check.
func (ix *laneIndex) blockOffsets(b *vmBlock, offs []int64) bool {
	n, stride := uint64(b.n), int64(b.stride)
	if ix.k0 == KFloat || ix.is2D && ix.k1 == KFloat {
		// Float subscripts truncate: the general per-lane decode.
		for l := range offs {
			off, ok := ix.offset(b.dim1, l)
			if !ok || uint64(off) >= n {
				return false
			}
			offs[l] = off + int64(l)*stride
		}
		return true
	}
	c0 := ix.c0[:len(offs)]
	if !ix.is2D {
		for l := range offs {
			off := int64(c0[l])
			if uint64(off) >= n {
				return false
			}
			offs[l] = off + int64(l)*stride
		}
		return true
	}
	dim1 := b.dim1
	if dim1 <= 0 {
		return false
	}
	c1 := ix.c1[:len(offs)]
	for l := range offs {
		off := int64(c0[l])*dim1 + int64(c1[l])
		if uint64(off) >= n {
			return false
		}
		offs[l] = off + int64(l)*stride
	}
	return true
}

// sharedBlock is the stride-0 block of a buffer every lane shares.
func sharedBlock(m *Memory, dim1 int64) vmBlock {
	return vmBlock{mem: m, data: m.Data, n: len(m.Data), dim1: dim1}
}

// holdsAll reports whether every listed lane's descriptor lies in b.
func (b *vmBlock) holdsAll(ps []vmPtr, lanes []int) bool {
	for _, l := range lanes {
		if !b.holds(ps[l], l) {
			return false
		}
	}
	return true
}

// regatherBlock is the block of a pointer column rebuilt by a re-gather:
// the register's block from before the scatter when every lane still lies
// in it, a shared block when every lane holds the same buffer, and no
// block otherwise.
func regatherBlock(old vmBlock, ps []vmPtr, lanes []int) vmBlock {
	if old.mem != nil && old.holdsAll(ps, lanes) {
		return old
	}
	p0 := ps[lanes[0]]
	if b := sharedBlock(p0.mem, p0.dim1); b.holdsAll(ps, lanes) {
		return b
	}
	return vmBlock{}
}

// maxPrivateBlock bounds the elements of one lockstep private-array block.
const maxPrivateBlock = 1 << 24

// privateBlock allocates a private array declaration for every active
// lane at once when all lanes agree on its dimensions: one zeroed
// lane-strided buffer and one Memory per lane over its stride, exactly
// what per-lane allocation yields, laid out so that memory instructions
// can use the register's block. It reports false, allocating nothing,
// when the lanes disagree or the block would be empty or too large.
func (s *vmScheduler) privateBlock(regs *vmRegs, a int32, d *VarDecl, twoD bool, lanes []int, dims func(int) (int64, int64)) bool {
	d0, d1 := dims(lanes[0])
	for _, l := range lanes[1:] {
		if x0, x1 := dims(l); x0 != d0 || x1 != d1 {
			return false
		}
	}
	size := d0
	if twoD {
		if d1 <= 0 || d0 > maxPrivateBlock/d1 {
			return false
		}
		size *= d1
	}
	w := s.width
	if size <= 0 || size > maxPrivateBlock/int64(w) {
		return false
	}
	n := int(size)
	data := make([]float64, n*w)
	mems := make([]Memory, w)
	for _, l := range lanes {
		mems[l] = Memory{Space: SpacePrivate, Elem: d.Type.Kind, ElemBytes: 4, Data: data[l*n : (l+1)*n : (l+1)*n]}
		regs.setPtr(a, l, &mems[l], d1)
	}
	regs.blk[a] = vmBlock{mem: &mems[lanes[0]], data: data, stride: n, n: n, dim1: d1}
	return true
}

// spaceCounter is the Counters field an access to space counts in.
func spaceCounter(c *Counters, space AddrSpace, load bool) *int64 {
	switch {
	case space == SpaceGlobal && load:
		return &c.GlobalLoads
	case space == SpaceGlobal:
		return &c.GlobalStores
	case space == SpaceLocal && load:
		return &c.LocalLoads
	case space == SpaceLocal:
		return &c.LocalStores
	default:
		return &c.PrivateAccess
	}
}

// scatter copies every live lane's column state into its per-item scalar
// frames (vmWI), with the top frame's ip at the diverging branch and no
// side effects from it applied — the scalar re-execution of the branch
// reproduces its counters exactly. Each lane frame gets the register kinds
// as they are, its own payload word of every register, and its own
// descriptor of every pointer register. Dead lanes stay vmDone.
func (s *vmScheduler) scatter() {
	w := s.width
	wis := s.wis
	nf := len(s.vframes)
	// Scattered lanes leave the segment: flush their share of the batched
	// counters before the scalar scheduler resumes incrementing per item.
	for _, l := range s.lanes {
		s.ctrs[l].Add(&s.segCtr)
	}
	s.segCtr = Counters{}
	for _, l := range s.lanes {
		wi := &wis[l]
		wi.frames = resize(wi.frames, nf)
		for d := 0; d < nf; d++ {
			vf := &s.vframes[d]
			fr := &wi.frames[d]
			fr.fn, fr.vc, fr.ip, fr.dst = vf.fn, vf.vc, vf.ip, vf.dst
			nr := vf.vc.numRegs
			fr.regs.reset(nr)
			copy(fr.regs.kind, vf.regs.kind)
			val := vf.regs.val
			for r := range fr.regs.val {
				fr.regs.val[r] = val[r*w+l]
			}
			for r, k := range vf.regs.kind {
				if k == KPtr {
					fr.regs.ptrs(int32(r))[0] = vf.regs.ptrs(int32(r))[l]
				}
			}
		}
		wi.status = vmRunning
	}
}

// runScalar drives the scattered group on the scalar cooperative protocol
// until either the group finishes (returns false) or a barrier release
// lets every surviving lane re-converge into lockstep (returns true).
//
// The barrier releases waiters only when waiting >= parties, and parties
// counts every lane that still owes an event — so at the moment a release
// fires, no unvisited runnable lane remains in the pass. Breaking out to
// attempt a re-gather and, on failure, restarting the pass from lane 0 is
// therefore order-equivalent to an uninterrupted pass.
func (s *vmScheduler) runScalar() bool {
	wis := s.wis
	errs := s.laneErrs
	parties := 0
	live := 0
	for i := range wis {
		switch wis[i].status {
		case vmRunning:
			parties++
			live++
		case vmWaiting:
			live++ // unreachable at entry; defensive
		}
	}
	s.bar.rebase(parties)
	for live > 0 {
		progress := false
		released := false
		for i := range wis {
			wi := &wis[i]
			if wi.status != vmRunning {
				continue
			}
			wi.run()
			progress = true
			if wi.status == vmWaiting {
				released = s.bar.arrive()
			} else if wi.status == vmDone {
				live--
				errs[i] = wi.err
				released = s.bar.leave()
			}
			if released {
				for j := range wis {
					if wis[j].status == vmWaiting {
						wis[j].status = vmRunning
					}
				}
				break
			}
		}
		if released && live > 0 {
			if s.tryGather() {
				return true
			}
			continue
		}
		if !progress && !released {
			break // defensive; the barrier protocol cannot starve
		}
	}
	return false
}

// frameWatermark returns the register index below which a suspended scalar
// frame's registers are live. The top frame of a released lane sits just
// past an opBarrier and deeper frames just past an opCallFn, both of which
// record the compiler's temp watermark (opcode.go); registers at or above
// it are dead, so stale per-lane garbage there cannot block a re-gather.
// Anything unexpected falls back to "all registers live" — sound, merely
// stricter.
func frameWatermark(f *vmFrame, top bool) int {
	wm := f.vc.numRegs
	if prev := f.ip - 1; prev >= 0 && prev < len(f.vc.code) {
		in := &f.vc.code[prev]
		if top && in.op == opBarrier {
			wm = int(in.a)
		} else if !top && in.op == opCallFn {
			wm = int(in.d)
		}
	}
	return wm
}

// tryGather attempts to re-converge the surviving lanes into lockstep
// after a barrier release: every live lane must hold an identical frame
// stack (same functions, resume points, and return destinations) with
// per-register kind agreement below each frame's live watermark — one
// slice comparison per frame and lane. On success the scalar words are
// copied back into columns and vector bookkeeping is reset for a fresh
// segment.
func (s *vmScheduler) tryGather() bool {
	wis := s.wis
	w := s.width
	lanes := s.lanes[:0]
	for i := 0; i < w; i++ {
		if wis[i].status == vmRunning {
			lanes = append(lanes, i)
		}
	}
	s.lanes = lanes
	if len(lanes) == 0 {
		return false
	}
	ref := &wis[lanes[0]]
	nf := len(ref.frames)
	for _, l := range lanes[1:] {
		if len(wis[l].frames) != nf {
			return false
		}
	}
	for d := 0; d < nf; d++ {
		rf := &ref.frames[d]
		wm := frameWatermark(rf, d == nf-1)
		for _, l := range lanes[1:] {
			of := &wis[l].frames[d]
			if of.fn != rf.fn || of.vc != rf.vc || of.ip != rf.ip || of.dst != rf.dst ||
				!slices.Equal(of.regs.kind[:wm], rf.regs.kind[:wm]) {
				return false
			}
		}
	}
	s.vframes = resize(s.vframes, nf)
	for d := 0; d < nf; d++ {
		rf := &ref.frames[d]
		vf := &s.vframes[d]
		vf.fn, vf.vc, vf.ip, vf.dst = rf.fn, rf.vc, rf.ip, rf.dst
		vf.regs.resetLanes(rf.vc.numRegs, w)
		wm := frameWatermark(rf, d == nf-1)
		for r := 0; r < wm; r++ {
			k := rf.regs.kind[r]
			vf.regs.kind[r] = k
			col := vf.regs.col(int32(r))
			for _, l := range lanes {
				col[l] = wis[l].frames[d].regs.val[r]
			}
			if k == KPtr {
				pc := vf.regs.ptrs(int32(r))
				for _, l := range lanes {
					pc[l] = wis[l].frames[d].regs.ptrs(int32(r))[0]
				}
				vf.regs.blk[r] = regatherBlock(vf.regs.blk[r], pc, lanes)
			}
		}
	}
	for i := 0; i < w; i++ {
		s.laneActive[i] = false
	}
	for _, l := range lanes {
		s.laneActive[l] = true
	}
	s.lanesDirty = false
	return true
}
