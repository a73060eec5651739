package oclc

// ValKind classifies runtime value types in the interpreter's dynamic type
// system. All integer widths collapse to int64 and all floating widths to
// float64; this preserves C's int-vs-float semantics (notably integer
// division for index math) without modelling exact widths.
type ValKind uint8

const (
	KVoid ValKind = iota
	KInt
	KFloat
	KBool
	KPtr
)

func (k ValKind) String() string {
	switch k {
	case KVoid:
		return "void"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KBool:
		return "bool"
	case KPtr:
		return "pointer"
	}
	return "?"
}

// AddrSpace is an OpenCL address space.
type AddrSpace uint8

const (
	SpacePrivate AddrSpace = iota
	SpaceGlobal
	SpaceLocal
)

func (s AddrSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "__global"
	case SpaceLocal:
		return "__local"
	default:
		return "__private"
	}
}

// Type is a (possibly pointer) declared type.
type Type struct {
	Kind  ValKind
	Ptr   bool
	Space AddrSpace
}

// Expr is an expression node.
type Expr interface{ exprPos() Pos }

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	V   int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	Pos Pos
	V   float64
}

// VarRef references a local variable or parameter by resolved frame slot.
type VarRef struct {
	Pos  Pos
	Name string
	Slot int
}

// Unary is a prefix (-x, !x, ~x, ++x, --x) or postfix (x++, x--) operation.
type Unary struct {
	Pos     Pos
	Op      string
	X       Expr
	Postfix bool
}

// Binary is an infix arithmetic/logical/comparison operation.
type Binary struct {
	Pos  Pos
	Op   string
	L, R Expr
}

// Assign is an assignment, possibly compound (+=, -=, ...). Target is a
// VarRef or Index.
type Assign struct {
	Pos    Pos
	Op     string // "=", "+=", ...
	Target Expr
	Value  Expr
}

// Cond is the ternary conditional.
type Cond struct {
	Pos     Pos
	C, T, F Expr
}

// Call is a function or builtin call.
type Call struct {
	Pos  Pos
	Name string
	Args []Expr
}

// Index subscripts a pointer or (possibly 2-D) array. Site is the static
// access-site id within the enclosing function, used by the coalescing
// analysis to group dynamic addresses per source location.
type Index struct {
	Pos  Pos
	Base Expr
	Idx  []Expr
	Site int
}

// Cast converts a value to a scalar type.
type Cast struct {
	Pos Pos
	To  Type
	X   Expr
}

func (e *IntLit) exprPos() Pos   { return e.Pos }
func (e *FloatLit) exprPos() Pos { return e.Pos }
func (e *VarRef) exprPos() Pos   { return e.Pos }
func (e *Unary) exprPos() Pos    { return e.Pos }
func (e *Binary) exprPos() Pos   { return e.Pos }
func (e *Assign) exprPos() Pos   { return e.Pos }
func (e *Cond) exprPos() Pos     { return e.Pos }
func (e *Call) exprPos() Pos     { return e.Pos }
func (e *Index) exprPos() Pos    { return e.Pos }
func (e *Cast) exprPos() Pos     { return e.Pos }

// Stmt is a statement node.
type Stmt interface{ stmtPos() Pos }

// Block is a brace-delimited statement list.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// VarDecl declares one variable, optionally an array with constant-
// evaluable dimensions (local tiles) and optionally initialized.
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Dims []Expr // nil for scalars; 1 or 2 entries for arrays
	Init Expr
	Slot int
}

// DeclStmt holds the declarations of one declaration statement.
type DeclStmt struct {
	Pos   Pos
	Decls []*VarDecl
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// If is a conditional statement.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// For is a C for-loop. Unroll carries the "#pragma unroll" hint (0 = none)
// that the performance model uses to discount loop overhead.
type For struct {
	Pos    Pos
	Init   Stmt // may be nil
	Cond   Expr // may be nil (infinite)
	Post   Expr // may be nil
	Body   Stmt
	Unroll int64
}

// While is a while-loop.
type While struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// Return exits the current function.
type Return struct {
	Pos Pos
	X   Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

func (s *Block) stmtPos() Pos        { return s.Pos }
func (s *DeclStmt) stmtPos() Pos     { return s.Pos }
func (s *ExprStmt) stmtPos() Pos     { return s.Pos }
func (s *If) stmtPos() Pos           { return s.Pos }
func (s *For) stmtPos() Pos          { return s.Pos }
func (s *While) stmtPos() Pos        { return s.Pos }
func (s *Return) stmtPos() Pos       { return s.Pos }
func (s *BreakStmt) stmtPos() Pos    { return s.Pos }
func (s *ContinueStmt) stmtPos() Pos { return s.Pos }

// FuncParam is a function parameter with its resolved frame slot.
type FuncParam struct {
	Name string
	Type Type
	Slot int
}

// Function is a parsed kernel or helper function.
type Function struct {
	Name     string
	Kernel   bool
	Ret      Type
	Params   []FuncParam
	Body     *Block
	NumSlots int
	// siteCount is the number of memory-access sites (Index nodes)
	// assigned in this function; sites identify static load/store
	// locations for the coalescing analysis.
	siteCount int

	// vm is the define-specialized bytecode produced by lowering
	// (compile.go). nil when lowering was skipped or bailed out; Launch
	// then falls back to the tree-walking engine.
	vm *vmCode
}

// Program is a parsed translation unit.
type Program struct {
	Funcs map[string]*Function
	// Source retains the preprocessed source for diagnostics.
	Source string
}

// Kernel returns the named kernel function.
func (p *Program) Kernel(name string) (*Function, error) {
	f, ok := p.Funcs[name]
	if !ok {
		return nil, errf(Pos{}, "kernel %q not found", name)
	}
	if !f.Kernel {
		return nil, errf(Pos{}, "%q is not a __kernel function", name)
	}
	return f, nil
}
