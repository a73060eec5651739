package oclc

// opcode enumerates the register-based bytecode instruction set. Operands
// are frame-slot/register indices into a register file (vmRegs: variable
// slots first, expression temporaries above), jump targets are instruction
// offsets, and every counter-relevant operation bumps the same Counters
// fields the tree-walking interpreter does — the two engines must agree
// bit-for-bit (differential_test.go).
type opcode uint8

const (
	// opNop is never emitted: a zeroed instruction is an unknown opcode.
	opNop opcode = iota

	// Control flow.
	opJump      // ip = imm
	opJumpFalse // if !truthy(r[a]) ip = imm
	opJumpTrue  // if truthy(r[a]) ip = imm
	opReturn    // return r[a] from the current frame
	opReturnNil // return rval{} from the current frame
	opErr       // fail with errTab[imm]
	opBarrier   // Barriers++; suspend until the work-group synchronizes (a = live temp watermark)

	// Counter bumps for statically-resolved work (folded constants,
	// eliminated branches) and loop iterations.
	opCtrInt    // IntOps += imm
	opCtrFloat  // FloatOps += imm
	opCtrBranch // Branches += imm
	opCtrLoop   // LoopIters++
	opCtrUnroll // UnrolledIters++
	opCount     // ctr.Add(&countTab[imm]) (mixed folded delta)

	// Data movement.
	opConstI   // r[a] = intVal(imm)
	opConstF   // r[a] = floatVal(f)
	opConstR   // r[a] = rvalTab[imm]
	opMove     // r[a] = r[b]
	opConvert  // r[a] = convert(r[b], ValKind(c))
	opBool     // r[a] = r[b].truthy() ? 1 : 0
	opStoreVar // slot a = r[b], converted to slot a's current scalar kind
	opIncVar   // r[a] = old/new of slot b ± 1 (imm=delta, c=postfix)
	opIncVal   // r[a] = r[b] ± 1 with counting, no store (imm=delta)

	// Arithmetic/logic; a=dst, b=lhs, c=rhs, C promotion at runtime.
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opShl
	opShr
	opBitAnd
	opBitOr
	opBitXor
	opEq
	opNe
	opLt
	opGt
	opLe
	opGe
	opNeg    // r[a] = -r[b]
	opNot    // r[a] = !r[b]
	opBitNot // r[a] = ^r[b]

	// Immediate forms: r[a] = r[b] OP imm with an integer constant
	// operand (the define-derived tiling constants kernel index math is
	// made of), skipping the opConstI materialization and its register
	// round-trip. Runtime C promotion follows r[b]'s kind; counters match
	// the register forms exactly. opDivImm/opModImm are only emitted with
	// imm != 0 (a constant zero divisor keeps the register form and its
	// runtime error).
	opAddImm
	opSubImm
	opRSubImm // r[a] = imm - r[b]
	opMulImm
	opDivImm
	opModImm
	opShlImm
	opShrImm
	opBitAndImm
	opBitOrImm
	opBitXorImm
	opEqImm
	opNeImm
	opLtImm
	opGtImm
	opLeImm
	opGeImm

	// Fused compare-and-branch: the dominant loop-head/if-head sequence
	// [compare; counter bump; conditional jump] in one dispatch. Operand
	// d packs the comparison kind (low byte), the counter bumped on the
	// taken/either path (cbIter* in the second byte), and the brUniform
	// hint bit; the jump target lives in c because imm carries the
	// constant for the Imm form.
	opBrCmpFalse    // compare r[a] ? r[b]; IntOps++; bump; if false ip = c
	opBrCmpFalseImm // compare r[a] ? imm;  IntOps++; bump; if false ip = c

	// Memory. Loads/stores count traffic by address space and feed the
	// coalescing log exactly like the walker's countAccess.
	opCheckPtr // fail unless r[a] is a pointer ("subscript of non-pointer value")
	opCheck2D  // fail unless r[a] has a second dimension
	opLoad1    // r[a] = r[b][r[c]]                 (imm=site)
	opLoad2    // r[a] = r[b][r[c]][r[d]]           (imm=site; IntOps++)
	opStore1   // r[a][r[b]] = r[c]                 (imm=site)
	opStore2   // r[a][r[b]][r[c]] = r[d]           (imm=site; IntOps++)
	opCheckDim // fail unless r[a] > 0 (array dim; imm=declTab idx, c=dim index)
	opArray    // slot a = new array, dims r[b](, r[c]); imm=declTab idx

	// Builtins and calls.
	opWIQuery     // r[a] = work-item query b at dimension c
	opFMA         // r[a] = fma(r[b], r[c], r[d]); FMAs++
	opCallBuiltin // r[a] = builtinTab[imm](args r[b:b+c])
	opCallFn      // r[a] = fnTab[imm](args r[b:b+c]); Calls++ (d = live temp watermark)
)

// Uniformity hints (compile.go, uniform.go), consumed only by the
// lockstep-vectorized execution (vmvec.go); the scalar frames ignore them. A
// hinted branch is proven work-item-ID-independent: every lane of a
// work-group executing in lockstep takes the same direction, so the
// vector engine decides it once instead of checking per-lane agreement.
// A wrong hint would silently corrupt lockstep execution, so the analysis
// in uniform.go is strictly conservative.
//
// For opJumpFalse/opJumpTrue the hint is d != 0 (d is otherwise unused);
// for opBrCmpFalse* it is the brUniform bit, above the cmp/cbIter bytes.
const brUniform int32 = 1 << 16

// Live temp watermarks: instructions at which a work-item can suspend
// (opBarrier) or leave the frame mid-statement (opCallFn) record the
// compiler's temp-register watermark in a spare operand. Registers at or
// above the watermark are dead — no later instruction reads them before
// writing — which the vector engine's lane re-convergence check uses to
// ignore stale per-lane garbage in expression temporaries.
//
// Lane-width-aware operand layout (vm.go, vmvec.go): every frame's
// register file is laid out column-major — the payload word of register r
// of lane l lives at val[r*width+l], so every operand index in this file
// addresses a contiguous [width]uint64 column plus one kind. Scalar frames
// use the same indices with width 1; no instruction encodes the width.

// Comparison kinds for opBrCmpFalse* (low byte of operand d).
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpGt
	cmpLe
	cmpGe
)

// Counter bumped by opBrCmpFalse* (high byte of operand d): Branches is
// counted on both paths (the walker counts a branch whichever way it
// goes), loop/unroll iterations only when the branch falls through into
// the body.
const (
	cbIterNone = iota
	cbIterBranch
	cbIterLoop
	cbIterUnroll
)

// Work-item query kinds for opWIQuery (operand b).
const (
	wqGlobalID = iota
	wqLocalID
	wqGroupID
	wqGlobalSize
	wqLocalSize
	wqNumGroups
	wqWorkDim
)

// instr is one bytecode instruction. Fixed-width operands keep dispatch a
// dense switch with no interface assertions; pos survives lowering so
// runtime errors carry the same source locations the walker reports.
type instr struct {
	op         opcode
	a, b, c, d int32
	imm        int64
	f          float64
	pos        Pos
}

// vmCode is one function's compiled form plus its constant pools.
type vmCode struct {
	code    []instr
	numRegs int

	countTab []Counters  // opCount deltas (folded expression costs)
	rvalTab  []rval      // folded constant values
	errTab   []error     // precomputed runtime errors
	declTab  []*VarDecl  // array declarations (localAlloc identity)
	callTab  []*Call     // builtin call sites (generic dispatch)
	builtins []builtinFn // parallel to callTab
	fnTab    []*Function // user-function call targets
}
