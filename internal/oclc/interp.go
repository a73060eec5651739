package oclc

import (
	"fmt"
	"math"
)

// wiCtx is the execution context of one work-item.
type wiCtx struct {
	prog  *Program
	wg    *wgCtx
	frame []rval
	ctr   *Counters

	gid [3]int64 // global id per dimension
	lid [3]int64 // local id
	lin int      // linear local id (for coalescing batches)
}

// ctrlFlow signals non-linear control flow while walking the tree.
type ctrlFlow uint8

const (
	flowNormal ctrlFlow = iota
	flowReturn
	flowBreak
	flowContinue
)

// execStmt executes one statement; it returns the control-flow signal and,
// for flowReturn, the returned value.
func (w *wiCtx) execStmt(s Stmt) (ctrlFlow, rval, error) {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			fl, rv, err := w.execStmt(sub)
			if err != nil || fl != flowNormal {
				return fl, rv, err
			}
		}
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := w.execDecl(d); err != nil {
				return flowNormal, rval{}, err
			}
		}
	case *ExprStmt:
		if _, err := w.eval(st.X); err != nil {
			return flowNormal, rval{}, err
		}
	case *If:
		c, err := w.eval(st.Cond)
		if err != nil {
			return flowNormal, rval{}, err
		}
		w.ctr.Branches++
		if c.truthy() {
			return w.execStmt(st.Then)
		}
		if st.Else != nil {
			return w.execStmt(st.Else)
		}
	case *For:
		if st.Init != nil {
			if fl, rv, err := w.execStmt(st.Init); err != nil || fl == flowReturn {
				return fl, rv, err
			}
		}
		for {
			if st.Cond != nil {
				c, err := w.eval(st.Cond)
				if err != nil {
					return flowNormal, rval{}, err
				}
				if !c.truthy() {
					break
				}
			}
			if st.Unroll != 0 { // >0: factor hint; -1: full unroll
				w.ctr.UnrolledIters++
			} else {
				w.ctr.LoopIters++
			}
			fl, rv, err := w.execStmt(st.Body)
			if err != nil || fl == flowReturn {
				return fl, rv, err
			}
			if fl == flowBreak {
				break
			}
			if st.Post != nil {
				if _, err := w.eval(st.Post); err != nil {
					return flowNormal, rval{}, err
				}
			}
		}
	case *While:
		for {
			c, err := w.eval(st.Cond)
			if err != nil {
				return flowNormal, rval{}, err
			}
			if !c.truthy() {
				break
			}
			w.ctr.LoopIters++
			fl, rv, err := w.execStmt(st.Body)
			if err != nil || fl == flowReturn {
				return fl, rv, err
			}
			if fl == flowBreak {
				break
			}
		}
	case *Return:
		if st.X == nil {
			return flowReturn, rval{}, nil
		}
		v, err := w.eval(st.X)
		return flowReturn, v, err
	case *BreakStmt:
		return flowBreak, rval{}, nil
	case *ContinueStmt:
		return flowContinue, rval{}, nil
	default:
		return flowNormal, rval{}, fmt.Errorf("oclc: unknown statement %T", s)
	}
	return flowNormal, rval{}, nil
}

// execDecl allocates and initializes one variable.
func (w *wiCtx) execDecl(d *VarDecl) error {
	if len(d.Dims) > 0 {
		return w.execArrayDecl(d)
	}
	v := rval{}
	switch d.Type.Kind {
	case KFloat:
		v = floatVal(0)
	default:
		v = intVal(0)
	}
	if d.Init != nil {
		iv, err := w.eval(d.Init)
		if err != nil {
			return err
		}
		v = convert(iv, d.Type.Kind)
	}
	w.frame[d.Slot] = v
	return nil
}

// execArrayDecl allocates a private register array or a work-group-shared
// local tile.
func (w *wiCtx) execArrayDecl(d *VarDecl) error {
	dims := make([]int64, len(d.Dims))
	size := int64(1)
	for i, e := range d.Dims {
		v, err := w.eval(e)
		if err != nil {
			return err
		}
		dims[i] = v.asInt()
		if dims[i] <= 0 {
			return fmt.Errorf("oclc: %s: array %q dimension %d is %d", d.Pos, d.Name, i, dims[i])
		}
		size *= dims[i]
	}
	elemBytes := 4
	var mem *Memory
	if d.Type.Space == SpaceLocal {
		var err error
		mem, err = w.wg.localAlloc(d, d.Type.Kind, elemBytes, size)
		if err != nil {
			return err
		}
	} else {
		mem = &Memory{Space: SpacePrivate, Elem: d.Type.Kind, ElemBytes: elemBytes, Data: make([]float64, size)}
	}
	ptr := rval{k: KPtr, mem: mem}
	if len(dims) == 2 {
		ptr.dim1 = dims[1]
	}
	w.frame[d.Slot] = ptr
	return nil
}

// convert applies a scalar conversion.
func convert(v rval, to ValKind) rval {
	switch to {
	case KFloat:
		return floatVal(v.asFloat())
	case KInt, KBool:
		return intVal(v.asInt())
	default:
		return v
	}
}

// eval evaluates an expression.
func (w *wiCtx) eval(e Expr) (rval, error) {
	switch x := e.(type) {
	case *IntLit:
		return intVal(x.V), nil
	case *FloatLit:
		return floatVal(x.V), nil
	case *VarRef:
		return w.frame[x.Slot], nil
	case *Cast:
		v, err := w.eval(x.X)
		if err != nil {
			return rval{}, err
		}
		return convert(v, x.To.Kind), nil
	case *Cond:
		c, err := w.eval(x.C)
		if err != nil {
			return rval{}, err
		}
		w.ctr.Branches++
		if c.truthy() {
			return w.eval(x.T)
		}
		return w.eval(x.F)
	case *Unary:
		return w.evalUnary(x)
	case *Binary:
		return w.evalBinary(x)
	case *Assign:
		return w.evalAssign(x)
	case *Index:
		mem, off, err := w.resolveIndex(x)
		if err != nil {
			return rval{}, err
		}
		w.countAccess(mem, off, x.Site, false)
		return mem.load(off)
	case *Call:
		return w.evalCall(x)
	default:
		return rval{}, fmt.Errorf("oclc: unknown expression %T", e)
	}
}

// resolveIndex computes the target memory and element offset of an Index.
func (w *wiCtx) resolveIndex(x *Index) (*Memory, int64, error) {
	base, err := w.eval(x.Base)
	if err != nil {
		return nil, 0, err
	}
	if base.k != KPtr || base.mem == nil {
		return nil, 0, errf(x.Pos, "subscript of non-pointer value")
	}
	i0, err := w.eval(x.Idx[0])
	if err != nil {
		return nil, 0, err
	}
	off := i0.asInt()
	if len(x.Idx) == 2 {
		if base.dim1 <= 0 {
			return nil, 0, errf(x.Pos, "2-D subscript of 1-D array")
		}
		i1, err := w.eval(x.Idx[1])
		if err != nil {
			return nil, 0, err
		}
		off = i0.asInt()*base.dim1 + i1.asInt()
		w.ctr.IntOps++ // row-major address computation
	}
	return base.mem, off, nil
}

// countAccess attributes a memory access to the right counter and feeds
// the coalescing recorder for global traffic.
func (w *wiCtx) countAccess(mem *Memory, off int64, site int, store bool) {
	switch mem.Space {
	case SpaceGlobal:
		if store {
			w.ctr.GlobalStores++
		} else {
			w.ctr.GlobalLoads++
		}
		if w.wg.log != nil {
			w.wg.log.record(site, w.lin, byteAddr(mem, off), store)
		}
	case SpaceLocal:
		if store {
			w.ctr.LocalStores++
		} else {
			w.ctr.LocalLoads++
		}
	default:
		w.ctr.PrivateAccess++
	}
}

func (w *wiCtx) evalUnary(x *Unary) (rval, error) {
	switch x.Op {
	case "++", "--":
		old, err := w.eval(x.X)
		if err != nil {
			return rval{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		var nv rval
		if old.k == KFloat {
			nv = floatVal(old.f + float64(delta))
			w.ctr.FloatOps++
		} else {
			nv = intVal(old.i + delta)
			w.ctr.IntOps++
		}
		if err := w.storeTo(x.X, nv, 0); err != nil {
			return rval{}, err
		}
		if x.Postfix {
			return old, nil
		}
		return nv, nil
	}
	v, err := w.eval(x.X)
	if err != nil {
		return rval{}, err
	}
	switch x.Op {
	case "-":
		if v.k == KFloat {
			w.ctr.FloatOps++
			return floatVal(-v.f), nil
		}
		w.ctr.IntOps++
		return intVal(-v.i), nil
	case "!":
		w.ctr.IntOps++
		if v.truthy() {
			return intVal(0), nil
		}
		return intVal(1), nil
	case "~":
		w.ctr.IntOps++
		return intVal(^v.asInt()), nil
	}
	return rval{}, errf(x.Pos, "unknown unary operator %q", x.Op)
}

func (w *wiCtx) evalBinary(x *Binary) (rval, error) {
	// Short-circuit logical operators.
	if x.Op == "&&" || x.Op == "||" {
		l, err := w.eval(x.L)
		if err != nil {
			return rval{}, err
		}
		w.ctr.Branches++
		if x.Op == "&&" && !l.truthy() {
			return intVal(0), nil
		}
		if x.Op == "||" && l.truthy() {
			return intVal(1), nil
		}
		r, err := w.eval(x.R)
		if err != nil {
			return rval{}, err
		}
		if r.truthy() {
			return intVal(1), nil
		}
		return intVal(0), nil
	}
	l, err := w.eval(x.L)
	if err != nil {
		return rval{}, err
	}
	r, err := w.eval(x.R)
	if err != nil {
		return rval{}, err
	}
	return w.applyBinary(x.Pos, x.Op, l, r)
}

// applyBinary performs one arithmetic/comparison operation with C
// promotion rules and counts it.
func (w *wiCtx) applyBinary(pos Pos, op string, l, r rval) (rval, error) {
	isFloat := l.k == KFloat || r.k == KFloat
	switch op {
	case "+", "-", "*", "/":
		if isFloat {
			w.ctr.FloatOps++
			a, b := l.asFloat(), r.asFloat()
			switch op {
			case "+":
				return floatVal(a + b), nil
			case "-":
				return floatVal(a - b), nil
			case "*":
				return floatVal(a * b), nil
			default:
				return floatVal(a / b), nil
			}
		}
		w.ctr.IntOps++
		a, b := l.asInt(), r.asInt()
		switch op {
		case "+":
			return intVal(a + b), nil
		case "-":
			return intVal(a - b), nil
		case "*":
			return intVal(a * b), nil
		default:
			if b == 0 {
				return rval{}, errf(pos, "integer division by zero")
			}
			return intVal(a / b), nil
		}
	case "%":
		if isFloat {
			return rval{}, errf(pos, "%% requires integer operands")
		}
		w.ctr.IntOps++
		b := r.asInt()
		if b == 0 {
			return rval{}, errf(pos, "integer modulo by zero")
		}
		return intVal(l.asInt() % b), nil
	case "<<", ">>", "&", "|", "^":
		if isFloat {
			return rval{}, errf(pos, "bitwise operator on float")
		}
		w.ctr.IntOps++
		a, b := l.asInt(), r.asInt()
		switch op {
		case "<<":
			return intVal(a << uint(b)), nil
		case ">>":
			return intVal(a >> uint(b)), nil
		case "&":
			return intVal(a & b), nil
		case "|":
			return intVal(a | b), nil
		default:
			return intVal(a ^ b), nil
		}
	case "==", "!=", "<", ">", "<=", ">=":
		w.ctr.IntOps++
		var res bool
		if isFloat {
			a, b := l.asFloat(), r.asFloat()
			switch op {
			case "==":
				res = a == b
			case "!=":
				res = a != b
			case "<":
				res = a < b
			case ">":
				res = a > b
			case "<=":
				res = a <= b
			default:
				res = a >= b
			}
		} else {
			a, b := l.asInt(), r.asInt()
			switch op {
			case "==":
				res = a == b
			case "!=":
				res = a != b
			case "<":
				res = a < b
			case ">":
				res = a > b
			case "<=":
				res = a <= b
			default:
				res = a >= b
			}
		}
		if res {
			return intVal(1), nil
		}
		return intVal(0), nil
	}
	return rval{}, errf(pos, "unknown binary operator %q", op)
}

func (w *wiCtx) evalAssign(x *Assign) (rval, error) {
	v, err := w.eval(x.Value)
	if err != nil {
		return rval{}, err
	}
	if x.Op != "=" {
		old, err := w.eval(x.Target) // counts the load
		if err != nil {
			return rval{}, err
		}
		op := x.Op[:len(x.Op)-1] // "+=" -> "+"
		v, err = w.applyBinary(x.Pos, op, old, v)
		if err != nil {
			return rval{}, err
		}
	}
	if err := w.storeTo(x.Target, v, 0); err != nil {
		return rval{}, err
	}
	return v, nil
}

// storeTo writes a value through an lvalue expression.
func (w *wiCtx) storeTo(target Expr, v rval, depth int) error {
	switch t := target.(type) {
	case *VarRef:
		cur := w.frame[t.Slot]
		if cur.k == KFloat || cur.k == KInt {
			v = convert(v, cur.k)
		}
		w.frame[t.Slot] = v
		return nil
	case *Index:
		mem, off, err := w.resolveIndex(t)
		if err != nil {
			return err
		}
		w.countAccess(mem, off, t.Site, true)
		return mem.store(off, v)
	default:
		return errf(target.exprPos(), "invalid assignment target %T", target)
	}
}

// evalCall dispatches builtins and user-defined helper functions.
func (w *wiCtx) evalCall(x *Call) (rval, error) {
	if fn, ok := builtins[x.Name]; ok {
		args := make([]rval, len(x.Args))
		for i, a := range x.Args {
			v, err := w.eval(a)
			if err != nil {
				return rval{}, err
			}
			args[i] = v
		}
		return fn(w, x, args)
	}
	callee, ok := w.prog.Funcs[x.Name]
	if ok {
		return w.callFunction(callee, x)
	}
	return rval{}, errf(x.Pos, "call to undefined function %q", x.Name)
}

// callFunction invokes a user-defined helper with a fresh frame.
func (w *wiCtx) callFunction(fn *Function, x *Call) (rval, error) {
	if len(x.Args) != len(fn.Params) {
		return rval{}, errf(x.Pos, "%q expects %d arguments, got %d", fn.Name, len(fn.Params), len(x.Args))
	}
	frame := make([]rval, fn.NumSlots)
	for i, a := range x.Args {
		v, err := w.eval(a)
		if err != nil {
			return rval{}, err
		}
		if !fn.Params[i].Type.Ptr {
			v = convert(v, fn.Params[i].Type.Kind)
		}
		frame[fn.Params[i].Slot] = v
	}
	w.ctr.Calls++
	saved := w.frame
	w.frame = frame
	defer func() { w.frame = saved }()
	fl, rv, err := w.execStmt(fn.Body)
	if err != nil {
		return rval{}, err
	}
	if fl == flowReturn {
		if !fn.Ret.Ptr && fn.Ret.Kind != KVoid {
			rv = convert(rv, fn.Ret.Kind)
		}
		return rv, nil
	}
	return rval{}, nil
}

// mathUnary adapts a float function as a special-ops builtin.
func mathUnary(f func(float64) float64) builtinFn {
	return func(w *wiCtx, x *Call, args []rval) (rval, error) {
		if len(args) != 1 {
			return rval{}, errf(x.Pos, "%s expects 1 argument", x.Name)
		}
		w.ctr.SpecialOps++
		return floatVal(f(args[0].asFloat())), nil
	}
}

var _ = math.Sqrt
