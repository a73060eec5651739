package oclc

import (
	"fmt"
	"math"
	"sync"

	"atf/internal/obs"
)

// VM execution metric (DESIGN.md §3c): total bytecode instructions
// retired. Accumulated into a per-work-item local and published once per
// Launch so the hot loop never touches an atomic.
var mVMInstructions = obs.NewCounter("atf_oclc_vm_instructions_total",
	"Bytecode instructions retired by the oclc register VM")

// vmPtr is one lane's pointer-register state: the buffer and, for a 2-D
// array, its second-dimension extent. Every pointer a kernel can hold
// addresses element 0 of its buffer (arguments and array declarations are
// the only pointer sources), so there is no offset.
type vmPtr struct {
	mem  *Memory
	dim1 int64
}

// vmRegs is the bytecode engines' register file: one kind per register,
// shared by all w lanes, and one pointer-free payload word per register
// and lane, laid out column-major — register r of lane l at val[r*w+l].
// A scalar frame is the w = 1 case; a lockstep frame spans the work-group.
// The payload holds int64 bits for KInt/KVoid, float64 bits for KFloat,
// and 0 for KPtr. Pointer state lives in a side table of per-lane vmPtr
// columns that only registers which ever hold a pointer get (pcol), so
// arithmetic never touches it and the payload columns — the hot data —
// carry no GC-visible pointers.
//
// A per-register kind is exact for a scalar frame. For a lockstep frame
// it rests on the kind-uniformity invariant (vmvec.go): every lane of a
// lockstep group holds the same kind in every register.
type vmRegs struct {
	w    int
	kind []ValKind
	val  []uint64
	pcol []int32   // register r's pointer column index + 1; 0 = none yet
	ptr  []vmPtr   // pointer columns, w entries each
	blk  []vmBlock // register r's whole-group layout, if any; nil in scalar frames
}

// vmBlock is the layout of a pointer register whose lanes all address one
// allocation: lane l's buffer is data[l*stride : l*stride+n] — a shared
// buffer (stride 0: arguments, __local tiles) or one lane-strided block
// (private arrays declared in lockstep). Memory instructions then index
// data directly instead of chasing each lane's descriptor. A zero vmBlock
// (nil mem) means the lanes' buffers are unrelated. Every write of a
// pointer column sets or clears the register's block.
type vmBlock struct {
	mem    *Memory // one lane's buffer: space and element kind of all
	data   []float64
	stride int
	n      int
	dim1   int64
}

// holds reports whether p, lane l's descriptor, lies in the block.
func (b *vmBlock) holds(p vmPtr, l int) bool {
	return b.n > 0 && len(p.mem.Data) == b.n && p.dim1 == b.dim1 &&
		&p.mem.Data[0] == &b.data[l*b.stride]
}

// reset shapes a scalar frame's file: n registers, one lane, no blocks.
func (r *vmRegs) reset(n int) { r.shape(n, 1, false) }

// resetLanes shapes a lockstep frame's file: n registers of w lanes, with
// a block slot per register.
func (r *vmRegs) resetLanes(n, w int) { r.shape(n, w, true) }

// shape sizes the file. Contents survive when the shape is unchanged —
// every register is written before it is read, so pooled files are
// reused un-zeroed — but a new shape clears kinds, the pointer-column map
// and the blocks, keeping the invariant that every KPtr register owns a
// column of the current width.
func (r *vmRegs) shape(n, w int, blocks bool) {
	if r.w == w && len(r.kind) == n {
		return
	}
	r.w = w
	r.kind = resize(r.kind, n)
	clear(r.kind)
	r.val = resize(r.val, n*w)
	r.pcol = resize(r.pcol, n)
	clear(r.pcol)
	r.ptr = r.ptr[:0]
	if blocks {
		r.blk = resize(r.blk, n)
		clear(r.blk)
	}
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// col returns register reg's payload column.
func (r *vmRegs) col(reg int32) []uint64 {
	i := int(reg) * r.w
	return r.val[i : i+r.w]
}

// ptrs returns register reg's pointer column, creating it on first use.
func (r *vmRegs) ptrs(reg int32) []vmPtr {
	if c := r.pcol[reg]; c != 0 {
		i := int(c-1) * r.w
		return r.ptr[i : i+r.w]
	}
	return r.newPtrs(reg)
}

func (r *vmRegs) newPtrs(reg int32) []vmPtr {
	i := len(r.ptr)
	r.ptr = append(r.ptr, make([]vmPtr, r.w)...)
	r.pcol[reg] = int32(i/r.w) + 1
	return r.ptr[i : i+r.w]
}

// get decodes lane l of register reg into an rval (builtin arguments,
// returns).
func (r *vmRegs) get(reg int32, l int) rval {
	v := r.val[int(reg)*r.w+l]
	switch k := r.kind[reg]; k {
	case KFloat:
		return rval{k: KFloat, f: math.Float64frombits(v)}
	case KPtr:
		p := r.ptrs(reg)[l]
		return rval{k: KPtr, mem: p.mem, dim1: p.dim1}
	default:
		return rval{k: k, i: int64(v)}
	}
}

// set encodes v into lane l of register reg. The kind is per register, so
// in a lockstep frame every lane must be set to the same kind.
func (r *vmRegs) set(reg int32, l int, v rval) {
	i := int(reg)*r.w + l
	switch v.k {
	case KFloat:
		r.val[i] = math.Float64bits(v.f)
	case KPtr:
		r.setPtr(reg, l, v.mem, v.dim1)
		return
	default:
		r.val[i] = uint64(v.i)
	}
	r.kind[reg] = v.k
}

// setPtr makes lane l of register reg point at mem.
func (r *vmRegs) setPtr(reg int32, l int, mem *Memory, dim1 int64) {
	r.kind[reg] = KPtr
	r.val[int(reg)*r.w+l] = 0
	r.ptrs(reg)[l] = vmPtr{mem: mem, dim1: dim1}
	if r.blk != nil {
		r.blk[reg] = vmBlock{}
	}
}

// copyReg copies register src of from into register dst of r on the given
// lanes; both files have the same width and may be the same file.
func (r *vmRegs) copyReg(dst int32, from *vmRegs, src int32, lanes []int) {
	k := from.kind[src]
	dcol, scol := r.col(dst), from.col(src)
	for _, l := range lanes {
		dcol[l] = scol[l]
	}
	if k == KPtr {
		dp := r.ptrs(dst) // first: it may grow r.ptr, which from may share
		sp := from.ptrs(src)
		for _, l := range lanes {
			dp[l] = sp[l]
		}
		if r.blk != nil {
			r.blk[dst] = from.blk[src]
		}
	}
	r.kind[dst] = k
}

// convertReg is copyReg through convert(·, to): KFloat and KInt/KBool
// targets convert the payload, any other target copies the value as is.
func (r *vmRegs) convertReg(dst int32, from *vmRegs, src int32, to ValKind, lanes []int) {
	k := from.kind[src]
	dcol, scol := r.col(dst), from.col(src)
	switch to {
	case KFloat:
		if k != KFloat {
			for _, l := range lanes {
				dcol[l] = fbits(float64(int64(scol[l])))
			}
		} else if r != from || dst != src {
			for _, l := range lanes {
				dcol[l] = scol[l]
			}
		}
		r.kind[dst] = KFloat
	case KInt, KBool:
		if k == KFloat {
			for _, l := range lanes {
				dcol[l] = uint64(int64(math.Float64frombits(scol[l])))
			}
		} else if r != from || dst != src {
			for _, l := range lanes {
				dcol[l] = scol[l]
			}
		}
		r.kind[dst] = KInt
	default:
		r.copyReg(dst, from, src, lanes)
	}
}

// lane0 is the lane list of a scalar (w = 1) register file.
var lane0 = []int{0}

// Payload decoding with C promotion: the narrowed counterparts of
// rval.asFloat, asInt and truthy for a word of kind k.

func fbits(f float64) uint64 { return math.Float64bits(f) }

func wordF(v uint64, k ValKind) float64 {
	if k == KFloat {
		return math.Float64frombits(v)
	}
	return float64(int64(v))
}

func wordI(v uint64, k ValKind) int64 {
	if k == KFloat {
		return int64(math.Float64frombits(v))
	}
	return int64(v)
}

func wordTruthy(v uint64, k ValKind) bool {
	if k == KFloat {
		return math.Float64frombits(v) != 0
	}
	return v != 0
}

// loadWord reads element i of m as a register payload of m's element
// kind; ok is false when i is out of range.
func (m *Memory) loadWord(i int64) (v uint64, k ValKind, ok bool) {
	if uint64(i) >= uint64(len(m.Data)) {
		return 0, KVoid, false
	}
	c := m.loadCell(i)
	if m.Elem == KFloat {
		return math.Float64bits(c), KFloat, true
	}
	return uint64(int64(c)), KInt, true
}

// storeWord writes a payload of kind k to element i with store's
// conversion and bounds semantics, without the atomic cell write: the VM
// schedulers interleave a whole group's work-items on one goroutine.
func (m *Memory) storeWord(i int64, v uint64, k ValKind) error {
	if uint64(i) >= uint64(len(m.Data)) {
		return m.rangeErr("store", i)
	}
	if m.Elem == KFloat {
		m.Data[i] = wordF(v, k)
	} else {
		m.Data[i] = float64(wordI(v, k))
	}
	return nil
}

// vmStatus is a work-item's scheduling state under the cooperative
// group scheduler.
type vmStatus uint8

const (
	vmRunning vmStatus = iota
	vmWaiting          // suspended at a barrier
	vmDone
)

// vmFrame is one activation record: a function's register file (w = 1)
// plus its resume point.
type vmFrame struct {
	fn   *Function
	vc   *vmCode
	regs vmRegs
	ip   int
	dst  int32 // caller register receiving the return value
}

// vmMaxDepth bounds the VM call stack. The walker's equivalent limit is
// the goroutine stack, which kills the process; the VM degrades into a
// per-work-item error instead.
const vmMaxDepth = 1 << 14

// vmWI is one work-item executing bytecode. Unlike the walker, which
// parks a goroutine per work-item in a cyclicBarrier, VM work-items are
// resumable: run executes until the work-item finishes, fails, or
// reaches a barrier, and the group scheduler resumes it after the group
// synchronizes. Running a whole group on one goroutine — no spawns, no
// futex round-trips per barrier — is a large part of the VM's speedup.
type vmWI struct {
	w      wiCtx // counter/launch context shared with builtin dispatch
	frames []vmFrame
	status vmStatus
	err    error
	icount int64
	args   []rval // builtin argument scratch
}

func (wi *vmWI) fail(err error) {
	wi.err = err
	wi.status = vmDone
}

// pushFrame enters callee at depth len(wi.frames), reusing the frame (and
// its register file) pooled there by an earlier call; reuse without
// zeroing is sound because every register is written before it is read:
// parameters by the caller's copy, variables by their declaration's
// zero/init instructions, temporaries by the expression that defines them.
func (wi *vmWI) pushFrame(callee *Function, dst int32) *vmFrame {
	depth := len(wi.frames)
	if depth == cap(wi.frames) {
		wi.frames = append(wi.frames, vmFrame{})
	} else {
		wi.frames = wi.frames[:depth+1]
	}
	nf := &wi.frames[depth]
	nf.regs.reset(callee.vm.numRegs)
	nf.fn, nf.vc, nf.ip, nf.dst = callee, callee.vm, 0, dst
	return nf
}

// run executes bytecode until the work-item suspends at a barrier,
// finishes, or fails. Panics map to the walker's "work-item panic"
// recovery.
func (wi *vmWI) run() {
	var n int64
	defer func() {
		wi.icount += n
		if r := recover(); r != nil {
			wi.fail(fmt.Errorf("oclc: work-item panic: %v", r))
		}
	}()
	ctr := wi.w.ctr
frames:
	for {
		f := &wi.frames[len(wi.frames)-1]
		vc := f.vc
		code := vc.code
		regs := &f.regs
		k, v := regs.kind, regs.val
		ip := f.ip
		for {
			in := &code[ip]
			n++
			switch in.op {
			case opJump:
				ip = int(in.imm)
			case opJumpFalse:
				if !wordTruthy(v[in.a], k[in.a]) {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opJumpTrue:
				if wordTruthy(v[in.a], k[in.a]) {
					ip = int(in.imm)
				} else {
					ip++
				}
			case opReturn, opReturnNil:
				var rv rval
				if in.op == opReturn {
					rv = regs.get(in.a, 0)
				}
				// Explicit returns (including bare "return;") convert to
				// the declared return type; falling off the end does not.
				if (in.op == opReturn || in.imm == 1) && !f.fn.Ret.Ptr && f.fn.Ret.Kind != KVoid {
					rv = convert(rv, f.fn.Ret.Kind)
				}
				dst := f.dst
				wi.frames = wi.frames[:len(wi.frames)-1]
				if len(wi.frames) == 0 {
					wi.status = vmDone
					return
				}
				wi.frames[len(wi.frames)-1].regs.set(dst, 0, rv)
				continue frames
			case opErr:
				wi.fail(vc.errTab[in.imm])
				return
			case opBarrier:
				ctr.Barriers++
				f.ip = ip + 1
				wi.status = vmWaiting
				return

			case opCtrInt:
				ctr.IntOps += in.imm
				ip++
			case opCtrFloat:
				ctr.FloatOps += in.imm
				ip++
			case opCtrBranch:
				ctr.Branches += in.imm
				ip++
			case opCtrLoop:
				ctr.LoopIters++
				ip++
			case opCtrUnroll:
				ctr.UnrolledIters++
				ip++
			case opCount:
				ctr.Add(&vc.countTab[in.imm])
				ip++

			case opConstI:
				k[in.a], v[in.a] = KInt, uint64(in.imm)
				ip++
			case opConstF:
				k[in.a], v[in.a] = KFloat, fbits(in.f)
				ip++
			case opConstR:
				regs.set(in.a, 0, vc.rvalTab[in.imm])
				ip++
			case opMove:
				regs.copyReg(in.a, regs, in.b, lane0)
				ip++
			case opConvert:
				regs.convertReg(in.a, regs, in.b, ValKind(in.c), lane0)
				ip++
			case opBool:
				k[in.a], v[in.a] = KInt, b2w(wordTruthy(v[in.b], k[in.b]))
				ip++
			case opStoreVar:
				regs.convertReg(in.a, regs, in.b, storeKind(k[in.a]), lane0)
				ip++
			case opIncVar:
				ob, kb := v[in.b], k[in.b]
				var nv uint64
				nk := KInt
				if kb == KFloat {
					ctr.FloatOps++
					nv, nk = fbits(math.Float64frombits(ob)+float64(in.imm)), KFloat
				} else {
					ctr.IntOps++
					nv = ob + uint64(in.imm)
				}
				k[in.b], v[in.b] = nk, nv
				if in.c != 0 {
					// Postfix yields the old value in its own kind; a
					// pointer's descriptor is still in b's column.
					k[in.a], v[in.a] = kb, ob
					if kb == KPtr {
						regs.ptrs(in.a)[0] = regs.ptrs(in.b)[0]
					}
				} else {
					k[in.a], v[in.a] = nk, nv
				}
				ip++
			case opIncVal:
				if k[in.b] == KFloat {
					ctr.FloatOps++
					k[in.a], v[in.a] = KFloat, fbits(math.Float64frombits(v[in.b])+float64(in.imm))
				} else {
					ctr.IntOps++
					k[in.a], v[in.a] = KInt, v[in.b]+uint64(in.imm)
				}
				ip++

			case opAdd, opSub, opMul, opDiv:
				kb, kc := k[in.b], k[in.c]
				lv, rv := v[in.b], v[in.c]
				if kb == KFloat || kc == KFloat {
					ctr.FloatOps++
					a, b := wordF(lv, kb), wordF(rv, kc)
					var r float64
					switch in.op {
					case opAdd:
						r = a + b
					case opSub:
						r = a - b
					case opMul:
						r = a * b
					default:
						r = a / b
					}
					k[in.a], v[in.a] = KFloat, fbits(r)
				} else {
					ctr.IntOps++
					var r uint64
					switch in.op {
					case opAdd:
						r = lv + rv
					case opSub:
						r = lv - rv
					case opMul:
						r = lv * rv
					default:
						if rv == 0 {
							wi.fail(errf(in.pos, "integer division by zero"))
							return
						}
						r = uint64(int64(lv) / int64(rv))
					}
					k[in.a], v[in.a] = KInt, r
				}
				ip++
			case opMod:
				if k[in.b] == KFloat || k[in.c] == KFloat {
					wi.fail(errf(in.pos, "%% requires integer operands"))
					return
				}
				ctr.IntOps++
				if v[in.c] == 0 {
					wi.fail(errf(in.pos, "integer modulo by zero"))
					return
				}
				k[in.a], v[in.a] = KInt, uint64(int64(v[in.b])%int64(v[in.c]))
				ip++
			case opShl, opShr, opBitAnd, opBitOr, opBitXor:
				if k[in.b] == KFloat || k[in.c] == KFloat {
					wi.fail(errf(in.pos, "bitwise operator on float"))
					return
				}
				ctr.IntOps++
				k[in.a], v[in.a] = KInt, bitOp(in.op-opShl, int64(v[in.b]), int64(v[in.c]))
				ip++
			case opEq, opNe, opLt, opGt, opLe, opGe:
				ctr.IntOps++
				kb, kc := k[in.b], k[in.c]
				var res bool
				if kb == KFloat || kc == KFloat {
					res = cmpFloats(int32(in.op-opEq), wordF(v[in.b], kb), wordF(v[in.c], kc))
				} else {
					res = cmpInts(int32(in.op-opEq), int64(v[in.b]), int64(v[in.c]))
				}
				k[in.a], v[in.a] = KInt, b2w(res)
				ip++
			case opAddImm, opSubImm, opRSubImm, opMulImm, opDivImm:
				kb, lv := k[in.b], v[in.b]
				if kb == KFloat {
					ctr.FloatOps++
					a, b := math.Float64frombits(lv), float64(in.imm)
					var r float64
					switch in.op {
					case opAddImm:
						r = a + b
					case opSubImm:
						r = a - b
					case opRSubImm:
						r = b - a
					case opMulImm:
						r = a * b
					default:
						r = a / b
					}
					k[in.a], v[in.a] = KFloat, fbits(r)
				} else {
					ctr.IntOps++
					a, b := int64(lv), in.imm
					var r int64
					switch in.op {
					case opAddImm:
						r = a + b
					case opSubImm:
						r = a - b
					case opRSubImm:
						r = b - a
					case opMulImm:
						r = a * b
					default:
						r = a / b
					}
					k[in.a], v[in.a] = KInt, uint64(r)
				}
				ip++
			case opModImm:
				if k[in.b] == KFloat {
					wi.fail(errf(in.pos, "%% requires integer operands"))
					return
				}
				ctr.IntOps++
				k[in.a], v[in.a] = KInt, uint64(int64(v[in.b])%in.imm)
				ip++
			case opShlImm, opShrImm, opBitAndImm, opBitOrImm, opBitXorImm:
				if k[in.b] == KFloat {
					wi.fail(errf(in.pos, "bitwise operator on float"))
					return
				}
				ctr.IntOps++
				k[in.a], v[in.a] = KInt, bitOp(in.op-opShlImm, int64(v[in.b]), in.imm)
				ip++
			case opEqImm, opNeImm, opLtImm, opGtImm, opLeImm, opGeImm:
				ctr.IntOps++
				var res bool
				if k[in.b] == KFloat {
					res = cmpFloats(int32(in.op-opEqImm), math.Float64frombits(v[in.b]), float64(in.imm))
				} else {
					res = cmpInts(int32(in.op-opEqImm), int64(v[in.b]), in.imm)
				}
				k[in.a], v[in.a] = KInt, b2w(res)
				ip++

			case opBrCmpFalse, opBrCmpFalseImm:
				kl, lv := k[in.a], v[in.a]
				kr, rv := KInt, uint64(in.imm)
				if in.op == opBrCmpFalse {
					kr, rv = k[in.b], v[in.b]
				}
				ctr.IntOps++
				res := brCmpRes(in.d&0xff, kl, lv, kr, rv)
				cb := (in.d >> 8) & 0xff // mask off the brUniform hint bit
				if cb == cbIterBranch {
					ctr.Branches++
				}
				if res {
					switch cb {
					case cbIterLoop:
						ctr.LoopIters++
					case cbIterUnroll:
						ctr.UnrolledIters++
					}
					ip++
				} else {
					ip = int(in.c)
				}

			case opNeg:
				if k[in.b] == KFloat {
					ctr.FloatOps++
					k[in.a], v[in.a] = KFloat, fbits(-math.Float64frombits(v[in.b]))
				} else {
					ctr.IntOps++
					k[in.a], v[in.a] = KInt, -v[in.b]
				}
				ip++
			case opNot:
				ctr.IntOps++
				k[in.a], v[in.a] = KInt, b2w(!wordTruthy(v[in.b], k[in.b]))
				ip++
			case opBitNot:
				ctr.IntOps++
				k[in.a], v[in.a] = KInt, uint64(^wordI(v[in.b], k[in.b]))
				ip++

			case opCheckPtr:
				if k[in.a] != KPtr || regs.ptrs(in.a)[0].mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				ip++
			case opCheck2D:
				if k[in.a] != KPtr || regs.ptrs(in.a)[0].dim1 <= 0 {
					wi.fail(errf(in.pos, "2-D subscript of 1-D array"))
					return
				}
				ip++
			case opLoad1, opLoad2, opStore1, opStore2:
				// Operand roles: loads address through b (indices c[, d])
				// into a; stores address through a (indices b[, c]) from
				// c or d.
				isLoad := in.op == opLoad1 || in.op == opLoad2
				is2D := in.op == opLoad2 || in.op == opStore2
				base, i0, i1, src := in.a, in.b, in.c, in.c
				if isLoad {
					base, i0, i1 = in.b, in.c, in.d
				} else if is2D {
					src = in.d
				}
				if k[base] != KPtr || regs.ptrs(base)[0].mem == nil {
					wi.fail(errf(in.pos, "subscript of non-pointer value"))
					return
				}
				p := regs.ptrs(base)[0]
				off := wordI(v[i0], k[i0])
				if is2D {
					if p.dim1 <= 0 {
						wi.fail(errf(in.pos, "2-D subscript of 1-D array"))
						return
					}
					off = off*p.dim1 + wordI(v[i1], k[i1])
					ctr.IntOps++ // row-major address computation
				}
				wi.w.countAccess(p.mem, off, int(in.imm), !isLoad)
				if isLoad {
					w, wk, ok := p.mem.loadWord(off)
					if !ok {
						wi.fail(p.mem.rangeErr("load", off))
						return
					}
					k[in.a], v[in.a] = wk, w
				} else if err := p.mem.storeWord(off, v[src], k[src]); err != nil {
					wi.fail(err)
					return
				}
				ip++
			case opCheckDim:
				if d := wordI(v[in.a], k[in.a]); d <= 0 {
					decl := vc.declTab[in.imm]
					wi.fail(fmt.Errorf("oclc: %s: array %q dimension %d is %d", decl.Pos, decl.Name, int(in.c), d))
					return
				}
				ip++
			case opArray:
				d0 := wordI(v[in.b], k[in.b])
				var d1 int64
				if in.c >= 0 {
					d1 = wordI(v[in.c], k[in.c])
				}
				mem, err := allocArray(&wi.w, vc.declTab[in.imm], d0, d1, in.c >= 0)
				if err != nil {
					wi.fail(err)
					return
				}
				regs.setPtr(in.a, 0, mem, d1)
				ip++

			case opWIQuery:
				k[in.a], v[in.a] = KInt, uint64(wi.w.query(int(in.b), int(in.c)))
				ip++
			case opFMA:
				ctr.FMAs++
				k[in.a], v[in.a] = KFloat, fbits(wordF(v[in.b], k[in.b])*wordF(v[in.c], k[in.c])+wordF(v[in.d], k[in.d]))
				ip++
			case opCallBuiltin:
				args := resize(wi.args, int(in.c))
				wi.args = args
				for i := range args {
					args[i] = regs.get(in.b+int32(i), 0)
				}
				rv, err := vc.builtins[in.imm](&wi.w, vc.callTab[in.imm], args)
				if err != nil {
					wi.fail(err)
					return
				}
				regs.set(in.a, 0, rv)
				ip++
			case opCallFn:
				callee := vc.fnTab[in.imm]
				ctr.Calls++
				if len(wi.frames) >= vmMaxDepth {
					wi.fail(errf(in.pos, "call depth exceeded"))
					return
				}
				f.ip = ip + 1
				nf := wi.pushFrame(callee, in.a)
				// wi.frames may have moved: re-read the caller's file.
				caller := &wi.frames[len(wi.frames)-2].regs
				for i := range callee.Params {
					nf.regs.copyReg(int32(callee.Params[i].Slot), caller, in.b+int32(i), lane0)
				}
				continue frames

			default:
				wi.fail(fmt.Errorf("oclc: unknown opcode %d", in.op))
				return
			}
		}
	}
}

// storeKind is the conversion opStoreVar applies for a slot currently of
// kind k: scalar slots keep their kind, any other slot takes the value as
// is (convert to KVoid is the identity).
func storeKind(k ValKind) ValKind {
	if k == KFloat || k == KInt {
		return k
	}
	return KVoid
}

// b2w is a comparison result as an int payload.
func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// bitOp applies the shift/bitwise operator at offset op from opShl (or
// opShlImm; both groups share the order shl, shr, and, or, xor).
func bitOp(op opcode, a, b int64) uint64 {
	switch op {
	case 0:
		return uint64(a << uint(b))
	case 1:
		return uint64(a >> uint(b))
	case 2:
		return uint64(a & b)
	case 3:
		return uint64(a | b)
	default:
		return uint64(a ^ b)
	}
}

// query answers a work-item query (opWIQuery operand b) at dimension d.
func (w *wiCtx) query(q, d int) int64 {
	switch q {
	case wqGlobalID:
		return w.gid[d]
	case wqLocalID:
		return w.lid[d]
	case wqGroupID:
		return w.wg.grp[d]
	case wqGlobalSize:
		return w.wg.launch.Global[d]
	case wqLocalSize:
		return w.wg.launch.Local[d]
	case wqNumGroups:
		return w.wg.launch.Global[d] / w.wg.launch.Local[d]
	default: // wqWorkDim
		return int64(w.wg.launch.Dims())
	}
}

// allocArray creates the storage of one array declaration with dimensions
// d0 (× d1 when twoD): the group's shared tile for __local arrays, a
// fresh private buffer otherwise.
func allocArray(w *wiCtx, d *VarDecl, d0, d1 int64, twoD bool) (*Memory, error) {
	size := d0
	if twoD {
		size *= d1
	}
	const elemBytes = 4
	if d.Type.Space == SpaceLocal {
		return w.wg.localAlloc(d, d.Type.Kind, elemBytes, size)
	}
	return &Memory{Space: SpacePrivate, Elem: d.Type.Kind, ElemBytes: elemBytes, Data: make([]float64, size)}, nil
}

// vmScheduler owns the per-launch execution state for the VM engine. All
// scratch — work-item records and their pooled frames and register files —
// is allocated once and reused across every work-group and, through
// vmSchedPool, across launches.
type vmScheduler struct {
	p    *Program
	fn   *Function
	vc   *vmCode
	args []Arg
	wis  []vmWI

	// Lockstep-vectorized execution state (vmvec.go). The vector frames
	// and their register files and the lane bookkeeping are pooled here
	// across launches like everything else.
	width      int
	lanes      []int  // active lanes, ascending
	laneActive []bool // lane liveness, indexed by linear local id
	lanesDirty bool
	vframes    []vecFrame
	argBuf     []rval       // builtin argument gather scratch
	offBuf     []int64      // per-lane element offsets (vecMem)
	ctrs       []Counters   // borrowed per-group counters (Launch scratch)
	laneErrs   []error      // borrowed per-group errors (Launch scratch)
	bar        barrierCount // the group's barrier; its flag is the result

	// segCtr batches the counter increments of the current lockstep
	// segment. In lockstep every active lane receives identical increments
	// per instruction, so they accumulate once per instruction here and
	// flush into a lane's ctrs entry exactly when the lane leaves the
	// segment: at death (laneFail), at a scatter, and when the group
	// finishes (runGroup). Per-lane divergence inside an instruction —
	// a lane dying before the instruction's increments apply — is handled
	// by ordering the segCtr bump against the laneFail calls to match the
	// scalar frames' per-item increment/fail order.
	segCtr Counters

	vecDispatches int64 // group-level instruction dispatches (metrics)
	vecLaneExecs  int64 // per-lane instructions retired in vector mode
}

// vmSchedPool recycles schedulers across launches: the tuning loop
// launches the same kernel thousands of times, and the register files
// were the dominant allocation per evaluation. Pool entries keep their
// pooled call frames too, so steady-state launches allocate nothing per
// group.
var vmSchedPool sync.Pool

func newVMScheduler(p *Program, fn *Function, vc *vmCode, args []Arg, n int) *vmScheduler {
	if v := vmSchedPool.Get(); v != nil {
		s := v.(*vmScheduler)
		if cap(s.wis) >= n {
			s.p, s.fn, s.vc, s.args = p, fn, vc, args
			s.wis = s.wis[:n]
			return s
		}
	}
	return &vmScheduler{
		p: p, fn: fn, vc: vc, args: args,
		wis: make([]vmWI, n),
	}
}

// release returns the scheduler to the pool. The caller must not use it
// afterwards; buffer references in the register files are dropped lazily
// (the pool is emptied by the next GC cycle). Locally accumulated vector
// metrics are published here, once per launch.
func (s *vmScheduler) release() {
	if s.vecDispatches > 0 {
		mVecDispatches.Add(uint64(s.vecDispatches))
		mVecInstructions.Add(uint64(s.vecLaneExecs))
		s.vecDispatches, s.vecLaneExecs = 0, 0
	}
	s.p, s.fn, s.vc, s.args = nil, nil, nil, nil
	s.ctrs, s.laneErrs = nil, nil
	vmSchedPool.Put(s)
}

// initWIs resets every work-item record of the group for a fresh run.
func (s *vmScheduler) initWIs(wg *wgCtx, counters []Counters, errs []error) {
	n := int(wg.launch.WorkGroupSize())
	for i := 0; i < n; i++ {
		counters[i] = Counters{}
		errs[i] = nil
	}
	lin := 0
	for lz := int64(0); lz < wg.launch.Local[2]; lz++ {
		for ly := int64(0); ly < wg.launch.Local[1]; ly++ {
			for lx := int64(0); lx < wg.launch.Local[0]; lx++ {
				wi := &s.wis[lin]
				wi.w = wiCtx{
					prog: s.p,
					wg:   wg,
					ctr:  &counters[lin],
					lid:  [3]int64{lx, ly, lz},
					gid: [3]int64{
						wg.grp[0]*wg.launch.Local[0] + lx,
						wg.grp[1]*wg.launch.Local[1] + ly,
						wg.grp[2]*wg.launch.Local[2] + lz,
					},
					lin: lin,
				}
				wi.status = vmRunning
				wi.err = nil
				wi.icount = 0
				lin++
			}
		}
	}
}
