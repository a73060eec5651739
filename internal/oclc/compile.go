package oclc

import (
	"fmt"
	"time"

	"atf/internal/obs"
)

// Lowering metric (DESIGN.md §3c): wall-clock nanoseconds of one
// AST→bytecode lowering pass over a whole program. Observed once per
// Compile, i.e. once per (source, define-set) thanks to CompileCached.
var mCompileNs = obs.NewHistogram("atf_oclc_compile_ns",
	"Wall-clock nanoseconds of one AST-to-bytecode lowering (per define-set)",
	[]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9})

// lower compiles every function of the program to define-specialized
// bytecode. Lowering is best-effort: if any function cannot be lowered
// the program keeps nil vm codes and Launch falls back to the
// tree-walking interpreter, so Compile never fails because of the VM.
func (p *Program) lower() {
	start := time.Now()
	lowerProgram(p)
	mCompileNs.Observe(float64(time.Since(start).Nanoseconds()))
}

// lowerProgram lowers all functions or none: opCallFn assumes its callee
// has a compiled body.
func lowerProgram(p *Program) {
	codes := make(map[*Function]*vmCode, len(p.Funcs))
	for _, fn := range p.Funcs {
		vc := lowerFunction(p, fn)
		if vc == nil {
			return
		}
		codes[fn] = vc
	}
	for fn, vc := range codes {
		fn.vm = vc
	}
}

func lowerFunction(p *Program, fn *Function) (vc *vmCode) {
	defer func() {
		if r := recover(); r != nil {
			vc = nil // unexpected AST shape: keep the walker for this program
		}
	}()
	c := &compiler{
		prog:    p,
		fn:      fn,
		vc:      &vmCode{},
		tempTop: int32(fn.NumSlots),
		maxRegs: fn.NumSlots,
	}
	c.scanKinds()
	c.uni = analyzeUniform(fn)
	// Self-referential initializers observe the slot's content from
	// before the declaration; the walker sees a zeroed frame there, the
	// VM a pooled register file, so those slots are cleared on entry.
	for _, slot := range c.zeroSlots {
		c.emit(instr{op: opConstR, a: slot, imm: c.rvalIdx(rval{})})
	}
	c.compileStmt(fn.Body)
	// Falling off the end returns rval{} without return-type conversion
	// (the walker's flowNormal path).
	c.emit(instr{op: opReturnNil})
	c.vc.numRegs = c.maxRegs
	return c.vc
}

// compiler lowers one function. Registers below fn.NumSlots are the
// variable frame slots the parser assigned; expression temporaries are
// allocated above them with a mark/reset watermark per statement.
type compiler struct {
	prog *Program
	fn   *Function
	vc   *vmCode

	tempTop int32
	maxRegs int
	loops   []loopPatch

	// Static kind inference (kinds.go): the guaranteed runtime kind of
	// each variable slot (KVoid = unknown), the element kind of slots
	// holding locally declared arrays, and the slots whose initializers
	// read their own pre-declaration content.
	slotKind  []ValKind
	elemKind  []ValKind
	zeroSlots []int32

	// Uniformity analysis (uniform.go): which variable slots provably
	// hold work-item-ID-independent values, for branch hints consumed by
	// the lockstep-vectorized engine.
	uni *uniScan
}

// loopPatch collects forward jumps of one lexical loop.
type loopPatch struct {
	breaks []int
	conts  []int
}

func (c *compiler) emit(in instr) int {
	c.vc.code = append(c.vc.code, in)
	return len(c.vc.code) - 1
}

// patch points a previously emitted jump at the next instruction.
func (c *compiler) patch(idx int) { c.setTarget(idx, int64(len(c.vc.code))) }

// setTarget writes a jump target: fused compare-and-branch instructions
// keep it in c (imm carries their constant), plain jumps in imm.
func (c *compiler) setTarget(idx int, target int64) {
	in := &c.vc.code[idx]
	if in.op == opBrCmpFalse || in.op == opBrCmpFalseImm {
		in.c = int32(target)
	} else {
		in.imm = target
	}
}

// cmpKinds maps comparison opcodes (register and immediate forms) to the
// opBrCmpFalse* comparison kind.
var cmpKinds = map[opcode]int32{
	opEq: cmpEq, opNe: cmpNe, opLt: cmpLt, opGt: cmpGt, opLe: cmpLe, opGe: cmpGe,
	opEqImm: cmpEq, opNeImm: cmpNe, opLtImm: cmpLt, opGtImm: cmpGt, opLeImm: cmpLe, opGeImm: cmpGe,
}

// emitCondBranch emits the branch-if-false on creg together with the
// associated counter bump (iter: opCtrBranch, opCtrLoop or opCtrUnroll),
// fusing all of it into the comparison instruction that produced creg
// when there is one. cond is the source condition; when the
// uniformity analysis proves it work-item-ID-independent the branch
// carries the brUniform hint for the vector engine. Returns the index to
// patch with the false-path target. The counter reorderings are
// unobservable: no instruction between the comparison and the branch can
// fail, and counters are only read after the work-item finishes.
func (c *compiler) emitCondBranch(creg int32, iter opcode, cond Expr, pos Pos) int {
	var hint int32
	if c.uni.condUniform(cond) {
		hint = brUniform
	}
	if n := len(c.vc.code) - 1; n >= 0 {
		last := c.vc.code[n]
		if kind, ok := cmpKinds[last.op]; ok && last.a == creg && creg >= int32(c.fn.NumSlots) {
			var cb int32
			switch iter {
			case opCtrBranch:
				cb = cbIterBranch
			case opCtrLoop:
				cb = cbIterLoop
			case opCtrUnroll:
				cb = cbIterUnroll
			}
			fop := opBrCmpFalse
			if last.op >= opEqImm && last.op <= opGeImm {
				fop = opBrCmpFalseImm
			}
			c.vc.code[n] = instr{op: fop, a: last.b, b: last.c, imm: last.imm, d: kind | cb<<8 | hint, pos: pos}
			return n
		}
	}
	if iter == opCtrBranch {
		c.emit(instr{op: opCtrBranch, imm: 1, pos: pos})
	}
	jf := c.emit(instr{op: opJumpFalse, a: creg, d: boolHint(hint != 0), pos: pos})
	if iter == opCtrLoop || iter == opCtrUnroll {
		c.emit(instr{op: iter, pos: pos})
	}
	return jf
}

// boolHint encodes a uniformity hint for opJumpFalse/opJumpTrue, whose d
// operand is otherwise unused.
func boolHint(uniform bool) int32 {
	if uniform {
		return 1
	}
	return 0
}

func (c *compiler) newTemp() int32 {
	r := c.tempTop
	c.tempTop++
	if int(c.tempTop) > c.maxRegs {
		c.maxRegs = int(c.tempTop)
	}
	return r
}

// allocBlock reserves n consecutive registers (call argument windows).
func (c *compiler) allocBlock(n int) int32 {
	base := c.tempTop
	c.tempTop += int32(n)
	if int(c.tempTop) > c.maxRegs {
		c.maxRegs = int(c.tempTop)
	}
	return base
}

func (c *compiler) mark() int32   { return c.tempTop }
func (c *compiler) reset(m int32) { c.tempTop = m }
func (c *compiler) errIdx(err error) int64 {
	c.vc.errTab = append(c.vc.errTab, err)
	return int64(len(c.vc.errTab) - 1)
}
func (c *compiler) rvalIdx(v rval) int64 {
	c.vc.rvalTab = append(c.vc.rvalTab, v)
	return int64(len(c.vc.rvalTab) - 1)
}
func (c *compiler) countIdx(d Counters) int64 {
	c.vc.countTab = append(c.vc.countTab, d)
	return int64(len(c.vc.countTab) - 1)
}
func (c *compiler) declIdx(d *VarDecl) int64 {
	c.vc.declTab = append(c.vc.declTab, d)
	return int64(len(c.vc.declTab) - 1)
}
func (c *compiler) fnIdx(fn *Function) int64 {
	c.vc.fnTab = append(c.vc.fnTab, fn)
	return int64(len(c.vc.fnTab) - 1)
}
func (c *compiler) callIdx(x *Call) int64 {
	c.vc.callTab = append(c.vc.callTab, x)
	c.vc.builtins = append(c.vc.builtins, builtins[x.Name])
	return int64(len(c.vc.callTab) - 1)
}

// foldKind classifies a constant-folding attempt.
type foldKind uint8

const (
	foldNo  foldKind = iota // needs runtime state; compile normally
	foldVal                 // folded to a value, delta holds its op mix
	foldErr                 // folds to a guaranteed runtime error
)

// fold attempts compile-time evaluation of a define-derived expression.
// It mirrors the walker exactly — the same applyBinary/evalUnary rules,
// including counter increments and their order relative to errors — and
// accumulates the operation mix into delta so emitted opCtr*/opCount
// instructions keep Counters bit-identical to an interpreted run. On
// foldNo the caller must discard delta and compile the expression
// normally (its foldable sub-expressions re-fold individually).
func (c *compiler) fold(e Expr, delta *Counters) (rval, foldKind, error) {
	switch x := e.(type) {
	case *IntLit:
		return intVal(x.V), foldVal, nil
	case *FloatLit:
		return floatVal(x.V), foldVal, nil
	case *Cast:
		v, k, err := c.fold(x.X, delta)
		if k != foldVal {
			return v, k, err
		}
		return convert(v, x.To.Kind), foldVal, nil
	case *Unary:
		if x.Op == "++" || x.Op == "--" {
			return rval{}, foldNo, nil
		}
		v, k, err := c.fold(x.X, delta)
		if k != foldVal {
			return v, k, err
		}
		switch x.Op {
		case "-":
			if v.k == KFloat {
				delta.FloatOps++
				return floatVal(-v.f), foldVal, nil
			}
			delta.IntOps++
			return intVal(-v.i), foldVal, nil
		case "!":
			delta.IntOps++
			if v.truthy() {
				return intVal(0), foldVal, nil
			}
			return intVal(1), foldVal, nil
		case "~":
			delta.IntOps++
			return intVal(^v.asInt()), foldVal, nil
		}
		return rval{}, foldNo, nil
	case *Binary:
		if x.Op == "&&" || x.Op == "||" {
			l, k, err := c.fold(x.L, delta)
			if k != foldVal {
				return l, k, err
			}
			delta.Branches++
			if x.Op == "&&" && !l.truthy() {
				return intVal(0), foldVal, nil
			}
			if x.Op == "||" && l.truthy() {
				return intVal(1), foldVal, nil
			}
			r, k, err := c.fold(x.R, delta)
			if k != foldVal {
				return r, k, err
			}
			if r.truthy() {
				return intVal(1), foldVal, nil
			}
			return intVal(0), foldVal, nil
		}
		l, k, err := c.fold(x.L, delta)
		if k != foldVal {
			return l, k, err
		}
		r, k, err := c.fold(x.R, delta)
		if k != foldVal {
			return r, k, err
		}
		sw := wiCtx{ctr: delta}
		v, err := sw.applyBinary(x.Pos, x.Op, l, r)
		if err != nil {
			return rval{}, foldErr, err
		}
		return v, foldVal, nil
	case *Cond:
		cv, k, err := c.fold(x.C, delta)
		if k != foldVal {
			return cv, k, err
		}
		delta.Branches++
		if cv.truthy() {
			return c.fold(x.T, delta)
		}
		return c.fold(x.F, delta)
	}
	return rval{}, foldNo, nil
}

// emitDelta materializes a folded expression's operation mix.
func (c *compiler) emitDelta(d Counters, pos Pos) {
	if d == (Counters{}) {
		return
	}
	switch {
	case d == (Counters{IntOps: d.IntOps}):
		c.emit(instr{op: opCtrInt, imm: d.IntOps, pos: pos})
	case d == (Counters{FloatOps: d.FloatOps}):
		c.emit(instr{op: opCtrFloat, imm: d.FloatOps, pos: pos})
	case d == (Counters{Branches: d.Branches}):
		c.emit(instr{op: opCtrBranch, imm: d.Branches, pos: pos})
	default:
		c.emit(instr{op: opCount, imm: c.countIdx(d), pos: pos})
	}
}

func (c *compiler) emitConst(dst int32, v rval, pos Pos) {
	switch v.k {
	case KInt:
		c.emit(instr{op: opConstI, a: dst, imm: v.i, pos: pos})
	case KFloat:
		c.emit(instr{op: opConstF, a: dst, f: v.f, pos: pos})
	default:
		c.emit(instr{op: opConstR, a: dst, imm: c.rvalIdx(v), pos: pos})
	}
}

func (c *compiler) emitErr(err error, pos Pos) {
	c.emit(instr{op: opErr, imm: c.errIdx(err), pos: pos})
}

// writesFrame reports whether evaluating e can write a frame slot of the
// current function (assignments and ++/--; helper calls write their own
// frames, but their argument expressions run in ours).
func writesFrame(e Expr) bool {
	switch x := e.(type) {
	case *Assign:
		return true
	case *Unary:
		if x.Op == "++" || x.Op == "--" {
			return true
		}
		return writesFrame(x.X)
	case *Binary:
		return writesFrame(x.L) || writesFrame(x.R)
	case *Cond:
		return writesFrame(x.C) || writesFrame(x.T) || writesFrame(x.F)
	case *Cast:
		return writesFrame(x.X)
	case *Index:
		if writesFrame(x.Base) {
			return true
		}
		for _, ie := range x.Idx {
			if writesFrame(ie) {
				return true
			}
		}
		return false
	case *Call:
		for _, a := range x.Args {
			if writesFrame(a) {
				return true
			}
		}
		return false
	}
	return false
}

// fallible reports whether evaluating e can produce a runtime error. It
// gates the opCheckPtr/opCheck2D guards that preserve the walker's error
// order (pointer check before index evaluation); over-approximating only
// costs an extra guard instruction.
func fallible(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *VarRef:
		return false
	case *Cast:
		return fallible(x.X)
	case *Unary:
		if x.Op == "++" || x.Op == "--" {
			if _, ok := x.X.(*VarRef); ok {
				return false
			}
			return true
		}
		return fallible(x.X)
	case *Binary:
		switch x.Op {
		case "/", "%", "<<", ">>", "&", "|", "^":
			return true
		}
		return fallible(x.L) || fallible(x.R)
	case *Cond:
		return fallible(x.C) || fallible(x.T) || fallible(x.F)
	}
	return true // Assign, Index, Call
}

// compileExpr emits code computing e and returns the register holding
// the result. The register may be a live variable slot (VarRef); callers
// that read it after code with frame side effects must go through
// compileOperand.
func (c *compiler) compileExpr(e Expr) int32 {
	var d Counters
	v, k, err := c.fold(e, &d)
	if k == foldVal {
		c.emitDelta(d, e.exprPos())
		t := c.newTemp()
		c.emitConst(t, v, e.exprPos())
		return t
	}
	if k == foldErr {
		c.emitDelta(d, e.exprPos())
		c.emitErr(err, e.exprPos())
		return c.newTemp() // unreachable
	}
	switch x := e.(type) {
	case *IntLit:
		t := c.newTemp()
		c.emit(instr{op: opConstI, a: t, imm: x.V, pos: x.Pos})
		return t
	case *FloatLit:
		t := c.newTemp()
		c.emit(instr{op: opConstF, a: t, f: x.V, pos: x.Pos})
		return t
	case *VarRef:
		return int32(x.Slot)
	case *Cast:
		r := c.compileExpr(x.X)
		t := c.newTemp()
		c.emit(instr{op: opConvert, a: t, b: r, c: int32(x.To.Kind), pos: x.Pos})
		return t
	case *Cond:
		return c.compileCond(x)
	case *Unary:
		return c.compileUnary(x)
	case *Binary:
		return c.compileBinary(x)
	case *Assign:
		return c.compileAssign(x)
	case *Index:
		t := c.newTemp()
		c.compileIndexLoad(x, t)
		return t
	case *Call:
		return c.compileCall(x)
	}
	panic(fmt.Sprintf("oclc: cannot lower %T", e))
}

// compileOperand compiles one operand of a multi-operand instruction.
// When clobber is set (a later operand's evaluation can write frame
// slots), a result living in a variable slot is copied to a temp so the
// instruction observes the walker's left-to-right evaluation order.
func (c *compiler) compileOperand(e Expr, clobber bool) int32 {
	r := c.compileExpr(e)
	if clobber && r < int32(c.fn.NumSlots) {
		t := c.newTemp()
		c.emit(instr{op: opMove, a: t, b: r})
		return t
	}
	return r
}

func (c *compiler) compileExprInto(e Expr, dst int32) {
	start := len(c.vc.code)
	r := c.compileExpr(e)
	if r == dst {
		return
	}
	if c.retarget(start, r, dst) {
		return
	}
	c.emit(instr{op: opMove, a: dst, b: r})
}

// retarget redirects the result of the expression compiled since start
// from temporary r into dst, when the last emitted instruction is its
// unique producer: it must write r, be a pure-dst op, and sit in a
// branch-free window (control flow means multiple writers, e.g. the two
// arms of a ternary). Returns false when an explicit move is needed.
func (c *compiler) retarget(start int, r, dst int32) bool {
	n := len(c.vc.code)
	if n > start && c.vc.code[n-1].a == r && r >= int32(c.fn.NumSlots) &&
		retargetable(c.vc.code[n-1].op) && straightLine(c.vc.code[start:n]) {
		c.vc.code[n-1].a = dst
		return true
	}
	return false
}

// landExpr compiles e so its value ends up in a variable slot whose
// statically-known kind matches e's, making the walker's store
// conversion a no-op: the producing instruction writes the slot
// directly, or an opMove replaces the opConvert/opStoreVar.
func (c *compiler) landExpr(e Expr, slot int32, pos Pos) {
	start := len(c.vc.code)
	r := c.compileExpr(e)
	if r == slot || c.retarget(start, r, slot) {
		return
	}
	c.emit(instr{op: opMove, a: slot, b: r, pos: pos})
}

func (c *compiler) compileCond(x *Cond) int32 {
	// Specialization: a define-derived condition selects its arm at
	// compile time and the dead arm is not emitted at all; the condition
	// still costs its folded operation mix plus the branch.
	var d Counters
	cv, k, err := c.fold(x.C, &d)
	if k == foldErr {
		c.emitDelta(d, x.Pos)
		c.emitErr(err, x.Pos)
		return c.newTemp()
	}
	if k == foldVal {
		d.Branches++
		c.emitDelta(d, x.Pos)
		if cv.truthy() {
			return c.compileExpr(x.T)
		}
		return c.compileExpr(x.F)
	}
	rc := c.compileExpr(x.C)
	t := c.newTemp()
	jf := c.emitCondBranch(rc, opCtrBranch, x.C, x.Pos)
	m := c.mark()
	c.compileExprInto(x.T, t)
	c.reset(m)
	j := c.emit(instr{op: opJump})
	c.patch(jf)
	c.compileExprInto(x.F, t)
	c.reset(m)
	c.patch(j)
	return t
}

func (c *compiler) compileUnary(x *Unary) int32 {
	if x.Op == "++" || x.Op == "--" {
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		post := int32(0)
		if x.Postfix {
			post = 1
		}
		switch t := x.X.(type) {
		case *VarRef:
			r := c.newTemp()
			c.emit(instr{op: opIncVar, a: r, b: int32(t.Slot), c: post, imm: delta, pos: x.Pos})
			return r
		case *Index:
			old := c.newTemp()
			c.compileIndexLoad(t, old)
			nv := c.newTemp()
			c.emit(instr{op: opIncVal, a: nv, b: old, imm: delta, pos: x.Pos})
			c.compileIndexStore(t, nv)
			if x.Postfix {
				return old
			}
			return nv
		default:
			// The walker evaluates the operand and counts the increment
			// before failing in storeTo.
			old := c.compileExpr(x.X)
			nv := c.newTemp()
			c.emit(instr{op: opIncVal, a: nv, b: old, imm: delta, pos: x.Pos})
			c.emitErr(errf(x.X.exprPos(), "invalid assignment target %T", x.X), x.Pos)
			return nv
		}
	}
	r := c.compileExpr(x.X)
	t := c.newTemp()
	switch x.Op {
	case "-":
		c.emit(instr{op: opNeg, a: t, b: r, pos: x.Pos})
	case "!":
		c.emit(instr{op: opNot, a: t, b: r, pos: x.Pos})
	case "~":
		c.emit(instr{op: opBitNot, a: t, b: r, pos: x.Pos})
	default:
		c.emitErr(errf(x.Pos, "unknown unary operator %q", x.Op), x.Pos)
	}
	return t
}

// binOps maps source operators to opcodes (compound assignment reuses it
// after stripping the trailing '=').
var binOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"<<": opShl, ">>": opShr, "&": opBitAnd, "|": opBitOr, "^": opBitXor,
	"==": opEq, "!=": opNe, "<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
}

func (c *compiler) compileBinary(x *Binary) int32 {
	if x.Op == "&&" || x.Op == "||" {
		rl := c.compileOperand(x.L, false)
		c.emit(instr{op: opCtrBranch, imm: 1, pos: x.Pos})
		t := c.newTemp()
		jop := opJumpFalse
		short := int64(0)
		if x.Op == "||" {
			jop = opJumpTrue
			short = 1
		}
		js := c.emit(instr{op: jop, a: rl, d: boolHint(c.uni.condUniform(x.L)), pos: x.Pos})
		m := c.mark()
		rr := c.compileExpr(x.R)
		c.emit(instr{op: opBool, a: t, b: rr, pos: x.Pos})
		c.reset(m)
		j := c.emit(instr{op: opJump})
		c.patch(js)
		c.emit(instr{op: opConstI, a: t, imm: short})
		c.patch(j)
		return t
	}
	op, ok := binOps[x.Op]
	if !ok {
		t := c.newTemp()
		c.emitErr(errf(x.Pos, "unknown binary operator %q", x.Op), x.Pos)
		return t
	}
	// Immediate forms: a side folding to an integer constant skips its
	// materialization. A folded side cannot write frames (++/assignments
	// never fold), so the other operand needs no clobber copy; its folded
	// operation mix is emitted as a counter delta in walker evaluation
	// order (left delta before the right operand's code, right delta
	// after the left's).
	var d Counters
	if rv, k, _ := c.fold(x.R, &d); k == foldVal && rv.k == KInt {
		if iop, ok := immOpsR[x.Op]; ok && !((x.Op == "/" || x.Op == "%") && rv.i == 0) {
			rl := c.compileOperand(x.L, false)
			c.emitDelta(d, x.Pos)
			t := c.newTemp()
			c.emit(instr{op: iop, a: t, b: rl, imm: rv.i, pos: x.Pos})
			return t
		}
	}
	d = Counters{}
	if lv, k, _ := c.fold(x.L, &d); k == foldVal && lv.k == KInt {
		if iop, ok := immOpsL[x.Op]; ok {
			c.emitDelta(d, x.Pos)
			rr := c.compileOperand(x.R, false)
			t := c.newTemp()
			c.emit(instr{op: iop, a: t, b: rr, imm: lv.i, pos: x.Pos})
			return t
		}
	}
	rl := c.compileOperand(x.L, writesFrame(x.R))
	rr := c.compileExpr(x.R)
	t := c.newTemp()
	c.emit(instr{op: op, a: t, b: rl, c: rr, pos: x.Pos})
	return t
}

// immOpsR maps operators to their immediate form for a constant right
// operand; immOpsL for a constant left operand (commutative ops reuse the
// same opcode, comparisons swap, subtraction reverses).
var immOpsR = map[string]opcode{
	"+": opAddImm, "-": opSubImm, "*": opMulImm, "/": opDivImm, "%": opModImm,
	"<<": opShlImm, ">>": opShrImm, "&": opBitAndImm, "|": opBitOrImm, "^": opBitXorImm,
	"==": opEqImm, "!=": opNeImm, "<": opLtImm, ">": opGtImm, "<=": opLeImm, ">=": opGeImm,
}

var immOpsL = map[string]opcode{
	"+": opAddImm, "-": opRSubImm, "*": opMulImm,
	"&": opBitAndImm, "|": opBitOrImm, "^": opBitXorImm,
	"==": opEqImm, "!=": opNeImm, "<": opGtImm, ">": opLtImm, "<=": opGeImm, ">=": opLeImm,
}

func (c *compiler) compileAssign(x *Assign) int32 {
	if t, ok := x.Target.(*VarRef); ok {
		if r, ok := c.compileVarAssign(x, t); ok {
			return r
		}
	}
	// The walker evaluates Value first; target sub-expressions (and the
	// compound-target load) run afterwards, so a Value living in a frame
	// slot must be snapshotted if the target leg can write frames.
	rv := c.compileOperand(x.Value, writesFrame(x.Target))
	switch t := x.Target.(type) {
	case *VarRef:
		if x.Op == "=" {
			c.emit(instr{op: opStoreVar, a: int32(t.Slot), b: rv, pos: x.Pos})
			return rv // assignment value before slot-kind conversion
		}
		op, ok := binOps[x.Op[:len(x.Op)-1]]
		if !ok {
			c.emitErr(errf(x.Pos, "unknown binary operator %q", x.Op[:len(x.Op)-1]), x.Pos)
			return rv
		}
		nv := c.newTemp()
		c.emit(instr{op: op, a: nv, b: int32(t.Slot), c: rv, pos: x.Pos})
		c.emit(instr{op: opStoreVar, a: int32(t.Slot), b: nv, pos: x.Pos})
		return nv
	case *Index:
		if x.Op == "=" {
			c.compileIndexStore(t, rv)
			return rv
		}
		op, ok := binOps[x.Op[:len(x.Op)-1]]
		if !ok {
			c.emitErr(errf(x.Pos, "unknown binary operator %q", x.Op[:len(x.Op)-1]), x.Pos)
			return rv
		}
		// Compound index assignment re-resolves the index for the store
		// leg exactly like the walker's storeTo (double-counting index
		// arithmetic and re-running index side effects).
		old := c.newTemp()
		c.compileIndexLoad(t, old)
		nv := c.newTemp()
		c.emit(instr{op: op, a: nv, b: old, c: rv, pos: x.Pos})
		c.compileIndexStore(t, nv)
		return nv
	default:
		if x.Op != "=" {
			old := c.compileExpr(x.Target)
			if op, ok := binOps[x.Op[:len(x.Op)-1]]; ok {
				nv := c.newTemp()
				c.emit(instr{op: op, a: nv, b: old, c: rv, pos: x.Pos})
			}
		}
		c.emitErr(errf(x.Target.exprPos(), "invalid assignment target %T", x.Target), x.Pos)
		return rv
	}
}

// compileVarAssign lowers an assignment to a scalar slot of
// statically-known kind when the stored value provably has that kind,
// eliding the storeTo conversion: the producer writes the slot directly,
// and a compound assignment with a constant integer operand becomes a
// single read-modify-write instruction (`kwg += WGD` is one opAddImm).
// Returns ok=false when the generic path must run.
func (c *compiler) compileVarAssign(x *Assign, t *VarRef) (int32, bool) {
	sk := c.slotKind[t.Slot]
	if sk != KInt && sk != KFloat {
		return 0, false
	}
	slot := int32(t.Slot)
	if x.Op == "=" {
		if c.staticKind(x.Value) != sk {
			return 0, false
		}
		c.landExpr(x.Value, slot, x.Pos)
		return slot, true
	}
	base := x.Op[:len(x.Op)-1]
	if _, ok := binOps[base]; !ok {
		return 0, false
	}
	var d Counters
	if cv, k, _ := c.fold(x.Value, &d); k == foldVal && cv.k == KInt {
		if iop, ok := immOpsR[base]; ok && !((base == "/" || base == "%") && cv.i == 0) &&
			binKind(base, sk, KInt) == sk {
			c.emitDelta(d, x.Pos)
			c.emit(instr{op: iop, a: slot, b: slot, imm: cv.i, pos: x.Pos})
			return slot, true
		}
	}
	if binKind(base, sk, c.staticKind(x.Value)) != sk {
		return 0, false
	}
	// A VarRef target leg has no frame effects, so the value needs no
	// clobber snapshot; the slot is read at the operation, after the
	// value's side effects, exactly like the walker's target load.
	rv := c.compileOperand(x.Value, false)
	c.emit(instr{op: binOps[base], a: slot, b: slot, c: rv, pos: x.Pos})
	return slot, true
}

// compileIndexOperands emits base and index computation with the
// walker's error order: the pointer check precedes index evaluation and
// the dimensionality check precedes the second index, so guards are
// emitted whenever a following sub-expression can itself fail.
func (c *compiler) compileIndexOperands(x *Index) (base, r0, r1 int32) {
	idxWrites := false
	idxFails := false
	for _, ie := range x.Idx {
		idxWrites = idxWrites || writesFrame(ie)
		idxFails = idxFails || fallible(ie)
	}
	base = c.compileOperand(x.Base, idxWrites)
	if idxFails {
		c.emit(instr{op: opCheckPtr, a: base, pos: x.Pos})
	}
	clob1 := len(x.Idx) == 2 && writesFrame(x.Idx[1])
	r0 = c.compileOperand(x.Idx[0], clob1)
	r1 = -1
	if len(x.Idx) == 2 {
		if fallible(x.Idx[1]) {
			c.emit(instr{op: opCheck2D, a: base, pos: x.Pos})
		}
		r1 = c.compileOperand(x.Idx[1], false)
	}
	return base, r0, r1
}

func (c *compiler) compileIndexLoad(x *Index, dst int32) {
	base, r0, r1 := c.compileIndexOperands(x)
	if r1 < 0 {
		c.emit(instr{op: opLoad1, a: dst, b: base, c: r0, imm: int64(x.Site), pos: x.Pos})
	} else {
		c.emit(instr{op: opLoad2, a: dst, b: base, c: r0, d: r1, imm: int64(x.Site), pos: x.Pos})
	}
}

func (c *compiler) compileIndexStore(x *Index, src int32) {
	base, r0, r1 := c.compileIndexOperands(x)
	if r1 < 0 {
		c.emit(instr{op: opStore1, a: base, b: r0, c: src, imm: int64(x.Site), pos: x.Pos})
	} else {
		c.emit(instr{op: opStore2, a: base, b: r0, c: r1, d: src, imm: int64(x.Site), pos: x.Pos})
	}
}

func (c *compiler) compileCall(x *Call) int32 {
	if _, ok := builtins[x.Name]; ok {
		return c.compileBuiltin(x)
	}
	callee, ok := c.prog.Funcs[x.Name]
	if !ok {
		c.emitErr(errf(x.Pos, "call to undefined function %q", x.Name), x.Pos)
		return c.newTemp()
	}
	if len(x.Args) != len(callee.Params) {
		// Arity is checked before argument evaluation (walker order).
		c.emitErr(errf(x.Pos, "%q expects %d arguments, got %d",
			callee.Name, len(callee.Params), len(x.Args)), x.Pos)
		return c.newTemp()
	}
	base := c.allocBlock(len(x.Args))
	for i, a := range x.Args {
		m := c.mark()
		c.compileExprInto(a, base+int32(i))
		c.reset(m)
		if !callee.Params[i].Type.Ptr {
			c.emit(instr{op: opConvert, a: base + int32(i), b: base + int32(i),
				c: int32(callee.Params[i].Type.Kind), pos: x.Pos})
		}
	}
	t := c.newTemp()
	// d records the live temp watermark of the caller frame while the
	// callee runs (vector lane re-convergence; see opcode.go).
	c.emit(instr{op: opCallFn, a: t, b: base, c: int32(len(x.Args)), d: c.tempTop, imm: c.fnIdx(callee), pos: x.Pos})
	return t
}

// wiQueryKinds maps the work-item query builtins to opWIQuery kinds.
var wiQueryKinds = map[string]int32{
	"get_global_id":   wqGlobalID,
	"get_local_id":    wqLocalID,
	"get_group_id":    wqGroupID,
	"get_global_size": wqGlobalSize,
	"get_local_size":  wqLocalSize,
	"get_num_groups":  wqNumGroups,
	"get_work_dim":    wqWorkDim,
}

func (c *compiler) compileBuiltin(x *Call) int32 {
	switch x.Name {
	case "barrier", "work_group_barrier":
		// Never routed through generic dispatch: opBarrier suspends the
		// work-item so the cooperative scheduler can synchronize the
		// group. The walker evaluates arguments (for effect) and then
		// synchronizes regardless of arity.
		c.compileArgsForEffect(x.Args)
		// a records the live temp watermark: registers at or above it are
		// dead across the suspension (vector lane re-convergence ignores
		// them; see opcode.go).
		c.emit(instr{op: opBarrier, a: c.tempTop, pos: x.Pos})
		t := c.newTemp()
		c.emit(instr{op: opConstR, a: t, imm: c.rvalIdx(rval{}), pos: x.Pos})
		return t
	case "fma", "mad":
		if len(x.Args) == 3 {
			r0 := c.compileOperand(x.Args[0], writesFrame(x.Args[1]) || writesFrame(x.Args[2]))
			r1 := c.compileOperand(x.Args[1], writesFrame(x.Args[2]))
			r2 := c.compileOperand(x.Args[2], false)
			t := c.newTemp()
			c.emit(instr{op: opFMA, a: t, b: r0, c: r1, d: r2, pos: x.Pos})
			return t
		}
	case "get_global_id", "get_local_id", "get_group_id",
		"get_global_size", "get_local_size", "get_num_groups", "get_work_dim":
		if r, ok := c.tryWIQuery(x); ok {
			return r
		}
	}
	return c.compileGenericBuiltin(x)
}

// tryWIQuery specializes a work-item query whose arguments all fold to
// constants (the overwhelmingly common get_*_id(0) shape) into a single
// opWIQuery. Non-constant arguments fall back to generic dispatch.
func (c *compiler) tryWIQuery(x *Call) (int32, bool) {
	var d Counters
	vals := make([]rval, len(x.Args))
	for i, a := range x.Args {
		v, k, _ := c.fold(a, &d)
		if k != foldVal {
			return 0, false
		}
		vals[i] = v
	}
	c.emitDelta(d, x.Pos)
	kind := wiQueryKinds[x.Name]
	dim := int64(0)
	if kind != wqWorkDim {
		if len(vals) >= 1 {
			dim = vals[0].asInt()
		}
		if dim < 0 || dim > 2 {
			c.emitErr(errf(x.Pos, "work-item dimension %d out of range", dim), x.Pos)
			return c.newTemp(), true
		}
	}
	t := c.newTemp()
	c.emit(instr{op: opWIQuery, a: t, b: kind, c: int32(dim), pos: x.Pos})
	return t, true
}

// compileArgsForEffect evaluates arguments whose value is discarded
// (barrier operands), eliding side-effect-free constants entirely.
func (c *compiler) compileArgsForEffect(args []Expr) {
	for _, a := range args {
		var d Counters
		if _, k, _ := c.fold(a, &d); k == foldVal {
			c.emitDelta(d, a.exprPos())
			continue
		}
		m := c.mark()
		c.compileExpr(a)
		c.reset(m)
	}
}

func (c *compiler) compileGenericBuiltin(x *Call) int32 {
	base := c.allocBlock(len(x.Args))
	for i, a := range x.Args {
		m := c.mark()
		c.compileExprInto(a, base+int32(i))
		c.reset(m)
	}
	t := c.newTemp()
	c.emit(instr{op: opCallBuiltin, a: t, b: base, c: int32(len(x.Args)), imm: c.callIdx(x), pos: x.Pos})
	return t
}

func (c *compiler) compileStmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			c.compileStmt(sub)
		}
	case *DeclStmt:
		for _, d := range st.Decls {
			c.compileDecl(d)
		}
	case *ExprStmt:
		m := c.mark()
		c.compileExpr(st.X)
		c.reset(m)
	case *If:
		c.compileIf(st)
	case *For:
		c.compileFor(st)
	case *While:
		c.compileWhile(st)
	case *Return:
		if st.X == nil {
			// Bare return converts rval{} to the return type (walker's
			// callFunction flowReturn path), unlike falling off the end.
			c.emit(instr{op: opReturnNil, imm: 1, pos: st.Pos})
			return
		}
		m := c.mark()
		r := c.compileExpr(st.X)
		c.emit(instr{op: opReturn, a: r, pos: st.Pos})
		c.reset(m)
	case *BreakStmt:
		if len(c.loops) == 0 {
			// The walker unwinds a stray break to the function end.
			c.emit(instr{op: opReturnNil, pos: st.Pos})
			return
		}
		l := &c.loops[len(c.loops)-1]
		l.breaks = append(l.breaks, c.emit(instr{op: opJump, pos: st.Pos}))
	case *ContinueStmt:
		if len(c.loops) == 0 {
			c.emit(instr{op: opReturnNil, pos: st.Pos})
			return
		}
		l := &c.loops[len(c.loops)-1]
		l.conts = append(l.conts, c.emit(instr{op: opJump, pos: st.Pos}))
	default:
		panic(fmt.Sprintf("oclc: cannot lower %T", s))
	}
}

func (c *compiler) compileIf(st *If) {
	var d Counters
	cv, k, err := c.fold(st.Cond, &d)
	if k == foldErr {
		c.emitDelta(d, st.Pos)
		c.emitErr(err, st.Pos)
		return
	}
	if k == foldVal {
		// Dead-branch elimination: the define-derived condition still
		// costs its operation mix plus the branch, but only the live
		// side is lowered.
		d.Branches++
		c.emitDelta(d, st.Pos)
		if cv.truthy() {
			c.compileStmt(st.Then)
		} else if st.Else != nil {
			c.compileStmt(st.Else)
		}
		return
	}
	m := c.mark()
	rc := c.compileExpr(st.Cond)
	jf := c.emitCondBranch(rc, opCtrBranch, st.Cond, st.Pos)
	c.reset(m)
	c.compileStmt(st.Then)
	if st.Else == nil {
		c.patch(jf)
		return
	}
	j := c.emit(instr{op: opJump})
	c.patch(jf)
	c.compileStmt(st.Else)
	c.patch(j)
}

// compileLoopCond emits the per-iteration condition check at the loop
// top together with the iteration-counter bump (iter: opCtrLoop or
// opCtrUnroll), fused into one compare-and-branch when the condition
// ends in a comparison. A condition folding to a constant keeps its
// per-iteration counter cost but drops the test; a constant-false
// condition means the loop body is dead code and is not emitted at all.
//
// Returns (jumpToPatch, enterBody): jumpToPatch < 0 when no conditional
// exit was emitted; enterBody is false when the loop provably never runs.
func (c *compiler) compileLoopCond(cond Expr, iter opcode, pos Pos) (int, bool) {
	if cond == nil {
		c.emit(instr{op: iter, pos: pos})
		return -1, true
	}
	var d Counters
	cv, k, err := c.fold(cond, &d)
	switch k {
	case foldErr:
		c.emitDelta(d, pos)
		c.emitErr(err, pos)
		return -1, false
	case foldVal:
		c.emitDelta(d, pos)
		if !cv.truthy() {
			return -1, false
		}
		c.emit(instr{op: iter, pos: pos})
		return -1, true
	}
	m := c.mark()
	rc := c.compileExpr(cond)
	jf := c.emitCondBranch(rc, iter, cond, pos)
	c.reset(m)
	return jf, true
}

func (c *compiler) compileFor(st *For) {
	if st.Init != nil {
		c.compileStmt(st.Init)
	}
	// A constant-false condition is checked (and its delta paid) once,
	// outside the loop, because the body never runs.
	if st.Cond != nil {
		var d Counters
		if cv, k, err := c.fold(st.Cond, &d); k != foldNo {
			if k == foldErr {
				c.emitDelta(d, st.Pos)
				c.emitErr(err, st.Pos)
				return
			}
			if !cv.truthy() {
				c.emitDelta(d, st.Pos)
				return
			}
		}
	}
	iter := opCtrLoop
	if st.Unroll != 0 {
		// The unroll hint is resolved at compile time: iterations land
		// in UnrolledIters without a per-iteration runtime test.
		iter = opCtrUnroll
	}
	top := len(c.vc.code)
	jf, _ := c.compileLoopCond(st.Cond, iter, st.Pos)
	c.loops = append(c.loops, loopPatch{})
	c.compileStmt(st.Body)
	l := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	cont := len(c.vc.code)
	for _, idx := range l.conts {
		c.vc.code[idx].imm = int64(cont)
	}
	if st.Post != nil {
		m := c.mark()
		c.compileExpr(st.Post)
		c.reset(m)
	}
	c.emit(instr{op: opJump, imm: int64(top)})
	end := int64(len(c.vc.code))
	if jf >= 0 {
		c.setTarget(jf, end)
	}
	for _, idx := range l.breaks {
		c.vc.code[idx].imm = end
	}
}

func (c *compiler) compileWhile(st *While) {
	var d Counters
	if cv, k, err := c.fold(st.Cond, &d); k != foldNo {
		if k == foldErr {
			c.emitDelta(d, st.Pos)
			c.emitErr(err, st.Pos)
			return
		}
		if !cv.truthy() {
			c.emitDelta(d, st.Pos)
			return
		}
	}
	top := len(c.vc.code)
	jf, _ := c.compileLoopCond(st.Cond, opCtrLoop, st.Pos)
	c.loops = append(c.loops, loopPatch{})
	c.compileStmt(st.Body)
	l := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	// continue in a while-loop re-evaluates the condition.
	for _, idx := range l.conts {
		c.vc.code[idx].imm = int64(top)
	}
	c.emit(instr{op: opJump, imm: int64(top)})
	end := int64(len(c.vc.code))
	if jf >= 0 {
		c.setTarget(jf, end)
	}
	for _, idx := range l.breaks {
		c.vc.code[idx].imm = end
	}
}

func (c *compiler) compileDecl(d *VarDecl) {
	if len(d.Dims) > 0 {
		c.compileArrayDecl(d)
		return
	}
	slot := int32(d.Slot)
	if d.Init == nil {
		if d.Type.Kind == KFloat {
			c.emit(instr{op: opConstF, a: slot, pos: d.Pos})
		} else {
			c.emit(instr{op: opConstI, a: slot, pos: d.Pos})
		}
		return
	}
	m := c.mark()
	// When the initializer provably already has the declared kind the
	// conversion is the identity and the value lands in the slot
	// directly. Self-referential initializers are excluded: eliding can
	// leave the slot's pre-declaration kind in place.
	if k := declSlotKind(d.Type); (k == KInt || k == KFloat) &&
		c.staticKind(d.Init) == k && !refsSlot(d.Init, d.Slot) {
		c.landExpr(d.Init, slot, d.Pos)
	} else {
		r := c.compileExpr(d.Init)
		c.emit(instr{op: opConvert, a: slot, b: r, c: int32(d.Type.Kind), pos: d.Pos})
	}
	c.reset(m)
}

func (c *compiler) compileArrayDecl(d *VarDecl) {
	di := c.declIdx(d)
	m := c.mark()
	regs := [2]int32{-1, -1}
	for i, e := range d.Dims {
		var dd Counters
		v, k, err := c.fold(e, &dd)
		if k == foldErr {
			c.emitDelta(dd, d.Pos)
			c.emitErr(err, d.Pos)
			regs[i] = c.newTemp() // unreachable
			continue
		}
		if k == foldVal {
			c.emitDelta(dd, d.Pos)
			if n := v.asInt(); n <= 0 {
				c.emitErr(fmt.Errorf("oclc: %s: array %q dimension %d is %d", d.Pos, d.Name, i, n), d.Pos)
			}
			r := c.newTemp()
			c.emitConst(r, v, d.Pos)
			regs[i] = r
			continue
		}
		r := c.compileOperand(e, i == 0 && len(d.Dims) == 2 && writesFrame(d.Dims[1]))
		c.emit(instr{op: opCheckDim, a: r, c: int32(i), imm: di, pos: d.Pos})
		regs[i] = r
	}
	c.emit(instr{op: opArray, a: int32(d.Slot), b: regs[0], c: regs[1], imm: di, pos: d.Pos})
	c.reset(m)
}
