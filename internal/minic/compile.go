package minic

import (
	"fmt"
)

// OpCode is a VM instruction opcode.
type OpCode byte

// The instruction set of the minic stack VM.
const (
	OpConst       OpCode = iota // push Consts[A]
	OpLoadLocal                 // push locals[A]
	OpStoreLocal                // locals[A] = pop
	OpLoadGlobal                // push globals[A]
	OpStoreGlobal               // globals[A] = pop
	OpJump                      // pc = A
	OpJumpIfFalse               // if !pop { pc = A }
	OpCall                      // call Funcs[A] with B args
	OpCallBuiltin               // call builtin A with B args
	OpSpawn                     // spawn Funcs[A] with B args; push thread handle
	OpReturn                    // return pop
	OpReturnNil                 // return unit
	OpPop                       // discard top
	OpBinary                    // binary operator A (see binOp names)
	OpUnary                     // unary operator A
	OpIndex                     // i = pop, a = pop, push a[i]
	OpSetIndex                  // v = pop, i = pop, a = pop, a[i] = v

	// Fused superinstructions, emitted only by the optimizer (optimize.go)
	// for the pairs/triples that dominate the lab programs' hot loops. They
	// are exact semantic contractions of their expansions.
	OpLoadLocalConstBin // push binary C over (locals[A], Consts[B])
	OpLoadLocal2Bin     // push binary C over (locals[A], locals[B])
	OpConstStoreLocal   // locals[B] = Consts[A]
)

// opNames maps opcodes to mnemonic names for disassembly.
var opNames = [...]string{
	OpConst: "const", OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpLoadGlobal: "loadg", OpStoreGlobal: "storeg", OpJump: "jump",
	OpJumpIfFalse: "jfalse", OpCall: "call", OpCallBuiltin: "callb",
	OpSpawn: "spawn", OpReturn: "ret", OpReturnNil: "retnil", OpPop: "pop",
	OpBinary: "bin", OpUnary: "un", OpIndex: "index", OpSetIndex: "setindex",
	OpLoadLocalConstBin: "loadl+const+bin", OpLoadLocal2Bin: "loadl+loadl+bin",
	OpConstStoreLocal: "const+storel",
}

// String names the opcode.
func (op OpCode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("OpCode(%d)", int(op))
}

// Binary operator codes for OpBinary.A.
const (
	BinAdd = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd
	BinOr
)

// Unary operator codes for OpUnary.A.
const (
	UnNeg = iota
	UnNot
)

var binOpCode = map[string]int{
	"+": BinAdd, "-": BinSub, "*": BinMul, "/": BinDiv, "%": BinMod,
	"==": BinEq, "!=": BinNe, "<": BinLt, "<=": BinLe, ">": BinGt, ">=": BinGe,
	"&&": BinAnd, "||": BinOr,
}

// Instr is one VM instruction. Line carries the source line for runtime
// diagnostics. C is used only by the fused superinstructions (the binary
// operator code).
type Instr struct {
	Op      OpCode
	A, B, C int
	Line    int
}

// CompiledFunc is a compiled function body. MaxStack is the operand-stack
// high-water mark computed at compile time, so the VM can carve the whole
// activation (locals + operand stack) out of a reusable arena without ever
// growing it mid-function.
type CompiledFunc struct {
	Name      string
	NumParams int
	NumLocals int // including params
	MaxStack  int // operand stack slots the body can ever occupy
	Code      []Instr
}

// Unit is the executable output of the compiler — what the portal's
// toolchain stores as a build artifact and ships to cluster nodes. A Unit is
// shared by every job (and every rank) that runs the same artifact, so it
// must be treated as immutable after Compile returns: the VM reads Consts,
// Funcs and GlobalInit but never writes them.
type Unit struct {
	Consts       []Value
	Globals      []string // global names, in slot order
	GlobalInit   []Instr  // initializer code run once, at rank start
	InitMaxStack int      // operand-stack bound for GlobalInit
	Funcs        []*CompiledFunc
	FuncIndex    map[string]int
	EntryPoint   int // index of main
}

// CompileOptions tune compilation.
type CompileOptions struct {
	// DisableOptimize skips the bytecode optimization pass (constant
	// folding, jump threading, dead-pop elimination, superinstruction
	// fusion). The pass is semantics-preserving, so this exists for
	// debugging and for the optimizer-equivalence tests.
	DisableOptimize bool
}

// Compile type-checks and compiles a parsed program with the optimizer
// enabled. The entry point must be a zero-argument function called main.
func Compile(prog *Program) (*Unit, error) {
	return CompileWithOptions(prog, CompileOptions{})
}

// CompileWithOptions is Compile with explicit options.
func CompileWithOptions(prog *Program, opts CompileOptions) (*Unit, error) {
	u := &Unit{FuncIndex: make(map[string]int)}
	// Pass 1: assign global slots and function indices.
	globalSlot := make(map[string]int)
	for _, g := range prog.Globals {
		if _, dup := globalSlot[g.Name]; dup {
			l, c := g.Pos()
			return nil, errAt(l, c, "duplicate global %q", g.Name)
		}
		globalSlot[g.Name] = len(u.Globals)
		u.Globals = append(u.Globals, g.Name)
	}
	for _, f := range prog.Funcs {
		if _, dup := u.FuncIndex[f.Name]; dup {
			l, c := f.Pos()
			return nil, errAt(l, c, "duplicate function %q", f.Name)
		}
		if isBuiltin(f.Name) {
			l, c := f.Pos()
			return nil, errAt(l, c, "function %q shadows a builtin", f.Name)
		}
		u.FuncIndex[f.Name] = len(u.Funcs)
		u.Funcs = append(u.Funcs, &CompiledFunc{Name: f.Name, NumParams: len(f.Params)})
	}
	main, ok := u.FuncIndex["main"]
	if !ok {
		return nil, errAt(1, 1, "program has no main function")
	}
	if u.Funcs[main].NumParams != 0 {
		f := prog.Func("main")
		l, c := f.Pos()
		return nil, errAt(l, c, "main must take no parameters")
	}
	u.EntryPoint = main

	// Pass 2: compile global initializers (no locals, no calls to user
	// functions are restricted — they may call builtins and functions).
	gc := &funcCompiler{unit: u, globals: globalSlot, prog: prog}
	for _, g := range prog.Globals {
		if err := gc.compileExpr(g.Init); err != nil {
			return nil, err
		}
		l, _ := g.Pos()
		gc.emit(Instr{Op: OpStoreGlobal, A: globalSlot[g.Name], Line: l})
	}
	u.GlobalInit = gc.code

	// Pass 3: compile function bodies.
	for i, f := range prog.Funcs {
		fc := &funcCompiler{unit: u, globals: globalSlot, prog: prog}
		fc.pushScope()
		for _, p := range f.Params {
			if _, err := fc.declare(p, f.position); err != nil {
				return nil, err
			}
		}
		if err := fc.compileBlock(f.Body); err != nil {
			return nil, err
		}
		// Implicit return at the end of every function.
		fc.emit(Instr{Op: OpReturnNil, Line: lastLine(f.Body)})
		u.Funcs[i].Code = fc.code
		u.Funcs[i].NumLocals = fc.maxSlots
	}

	// Pass 4: optimize, then fix the operand-stack bound of every body.
	// MaxStack is computed after optimization because fusion changes the
	// stack profile (a fused triple touches the stack once, not thrice).
	if !opts.DisableOptimize {
		u.GlobalInit = optimizeCode(u, u.GlobalInit)
		for _, f := range u.Funcs {
			f.Code = optimizeCode(u, f.Code)
		}
	}
	u.InitMaxStack = computeMaxStack(u.GlobalInit)
	for _, f := range u.Funcs {
		f.MaxStack = computeMaxStack(f.Code)
	}
	return u, nil
}

func lastLine(b *Block) int {
	l, _ := b.Pos()
	if n := len(b.Stmts); n > 0 {
		l, _ = b.Stmts[n-1].Pos()
	}
	return l
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Unit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog)
}

// CompileSourceWithOptions parses and compiles in one step with explicit
// options.
func CompileSourceWithOptions(src string, opts CompileOptions) (*Unit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileWithOptions(prog, opts)
}

type loopContext struct {
	breakJumps    []int // instruction indices to patch to loop end
	continueJumps []int // instruction indices to patch to loop post
}

type funcCompiler struct {
	unit     *Unit
	globals  map[string]int
	prog     *Program
	code     []Instr
	scopes   []map[string]int
	nextSlot int
	maxSlots int
	loops    []*loopContext
}

func (c *funcCompiler) emit(in Instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *funcCompiler) pushScope() {
	c.scopes = append(c.scopes, map[string]int{})
}

func (c *funcCompiler) popScope() {
	top := c.scopes[len(c.scopes)-1]
	c.nextSlot -= len(top)
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *funcCompiler) declare(name string, pos position) (int, error) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return 0, errAt(pos.line, pos.col, "variable %q redeclared in this scope", name)
	}
	slot := c.nextSlot
	top[name] = slot
	c.nextSlot++
	if c.nextSlot > c.maxSlots {
		c.maxSlots = c.nextSlot
	}
	return slot, nil
}

// resolve finds a name as a local (slot, true) or global (slot, false).
func (c *funcCompiler) resolve(name string) (slot int, local, ok bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, found := c.scopes[i][name]; found {
			return s, true, true
		}
	}
	if s, found := c.globals[name]; found {
		return s, false, true
	}
	return 0, false, false
}

func (c *funcCompiler) addConst(v Value) int {
	// Interning keeps units small for loops full of literals.
	return c.unit.internConst(v)
}

func sameConst(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt, KindBool, KindFloat:
		// Floats compare by bit pattern, so -0.0 never interns onto 0.0.
		return a.I == b.I
	case KindString:
		return a.S() == b.S()
	default:
		return false
	}
}

func (c *funcCompiler) compileBlock(b *Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.compileStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *funcCompiler) compileStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return c.compileBlock(st)
	case *VarDecl:
		if err := c.compileExpr(st.Init); err != nil {
			return err
		}
		slot, err := c.declare(st.Name, st.position)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpStoreLocal, A: slot, Line: st.line})
		return nil
	case *AssignStmt:
		return c.compileAssign(st)
	case *IfStmt:
		return c.compileIf(st)
	case *WhileStmt:
		return c.compileWhile(st)
	case *ForStmt:
		return c.compileFor(st)
	case *ReturnStmt:
		if st.Value != nil {
			if err := c.compileExpr(st.Value); err != nil {
				return err
			}
			c.emit(Instr{Op: OpReturn, Line: st.line})
		} else {
			c.emit(Instr{Op: OpReturnNil, Line: st.line})
		}
		return nil
	case *BreakStmt:
		if len(c.loops) == 0 {
			return errAt(st.line, st.col, "break outside loop")
		}
		idx := c.emit(Instr{Op: OpJump, Line: st.line})
		lp := c.loops[len(c.loops)-1]
		lp.breakJumps = append(lp.breakJumps, idx)
		return nil
	case *ContinueStmt:
		if len(c.loops) == 0 {
			return errAt(st.line, st.col, "continue outside loop")
		}
		idx := c.emit(Instr{Op: OpJump, Line: st.line})
		lp := c.loops[len(c.loops)-1]
		lp.continueJumps = append(lp.continueJumps, idx)
		return nil
	case *ExprStmt:
		if err := c.compileExpr(st.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpPop, Line: st.line})
		return nil
	default:
		l, col := s.Pos()
		return errAt(l, col, "internal: unknown statement %T", s)
	}
}

func (c *funcCompiler) compileAssign(st *AssignStmt) error {
	switch target := st.Target.(type) {
	case *Ident:
		if err := c.compileExpr(st.Value); err != nil {
			return err
		}
		slot, local, ok := c.resolve(target.Name)
		if !ok {
			return errAt(target.line, target.col, "undefined variable %q", target.Name)
		}
		op := OpStoreGlobal
		if local {
			op = OpStoreLocal
		}
		c.emit(Instr{Op: op, A: slot, Line: st.line})
		return nil
	case *IndexExpr:
		if err := c.compileExpr(target.X); err != nil {
			return err
		}
		if err := c.compileExpr(target.Index); err != nil {
			return err
		}
		if err := c.compileExpr(st.Value); err != nil {
			return err
		}
		c.emit(Instr{Op: OpSetIndex, Line: st.line})
		return nil
	default:
		l, col := st.Pos()
		return errAt(l, col, "invalid assignment target %T", st.Target)
	}
}

func (c *funcCompiler) compileIf(st *IfStmt) error {
	if err := c.compileExpr(st.Cond); err != nil {
		return err
	}
	jElse := c.emit(Instr{Op: OpJumpIfFalse, Line: st.line})
	if err := c.compileBlock(st.Then); err != nil {
		return err
	}
	if st.Else == nil {
		c.code[jElse].A = len(c.code)
		return nil
	}
	jEnd := c.emit(Instr{Op: OpJump, Line: st.line})
	c.code[jElse].A = len(c.code)
	if err := c.compileStmt(st.Else); err != nil {
		return err
	}
	c.code[jEnd].A = len(c.code)
	return nil
}

func (c *funcCompiler) compileWhile(st *WhileStmt) error {
	top := len(c.code)
	if err := c.compileExpr(st.Cond); err != nil {
		return err
	}
	jExit := c.emit(Instr{Op: OpJumpIfFalse, Line: st.line})
	c.loops = append(c.loops, &loopContext{})
	if err := c.compileBlock(st.Body); err != nil {
		return err
	}
	c.emit(Instr{Op: OpJump, A: top, Line: st.line})
	end := len(c.code)
	c.code[jExit].A = end
	lp := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	for _, j := range lp.breakJumps {
		c.code[j].A = end
	}
	for _, j := range lp.continueJumps {
		c.code[j].A = top
	}
	return nil
}

func (c *funcCompiler) compileFor(st *ForStmt) error {
	c.pushScope()
	defer c.popScope()
	if st.Init != nil {
		if err := c.compileStmt(st.Init); err != nil {
			return err
		}
	}
	top := len(c.code)
	var jExit = -1
	if st.Cond != nil {
		if err := c.compileExpr(st.Cond); err != nil {
			return err
		}
		jExit = c.emit(Instr{Op: OpJumpIfFalse, Line: st.line})
	}
	c.loops = append(c.loops, &loopContext{})
	if err := c.compileBlock(st.Body); err != nil {
		return err
	}
	postStart := len(c.code)
	if st.Post != nil {
		if err := c.compileStmt(st.Post); err != nil {
			return err
		}
	}
	c.emit(Instr{Op: OpJump, A: top, Line: st.line})
	end := len(c.code)
	if jExit >= 0 {
		c.code[jExit].A = end
	}
	lp := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	for _, j := range lp.breakJumps {
		c.code[j].A = end
	}
	for _, j := range lp.continueJumps {
		c.code[j].A = postStart
	}
	return nil
}

func (c *funcCompiler) compileExpr(e Expr) error {
	switch ex := e.(type) {
	case *IntLit:
		c.emit(Instr{Op: OpConst, A: c.addConst(IntValue(ex.Value)), Line: ex.line})
	case *FloatLit:
		c.emit(Instr{Op: OpConst, A: c.addConst(FloatValue(ex.Value)), Line: ex.line})
	case *StringLit:
		c.emit(Instr{Op: OpConst, A: c.addConst(StringValue(ex.Value)), Line: ex.line})
	case *BoolLit:
		c.emit(Instr{Op: OpConst, A: c.addConst(BoolValue(ex.Value)), Line: ex.line})
	case *Ident:
		slot, local, ok := c.resolve(ex.Name)
		if !ok {
			return errAt(ex.line, ex.col, "undefined variable %q", ex.Name)
		}
		op := OpLoadGlobal
		if local {
			op = OpLoadLocal
		}
		c.emit(Instr{Op: op, A: slot, Line: ex.line})
	case *UnaryExpr:
		if err := c.compileExpr(ex.X); err != nil {
			return err
		}
		code := UnNeg
		if ex.Op == "!" {
			code = UnNot
		}
		c.emit(Instr{Op: OpUnary, A: code, Line: ex.line})
	case *BinaryExpr:
		// Note: && and || evaluate both sides (no short circuit); the
		// language is small enough that this is documented behaviour.
		if err := c.compileExpr(ex.X); err != nil {
			return err
		}
		if err := c.compileExpr(ex.Y); err != nil {
			return err
		}
		code, ok := binOpCode[ex.Op]
		if !ok {
			return errAt(ex.line, ex.col, "unknown operator %q", ex.Op)
		}
		c.emit(Instr{Op: OpBinary, A: code, Line: ex.line})
	case *IndexExpr:
		if err := c.compileExpr(ex.X); err != nil {
			return err
		}
		if err := c.compileExpr(ex.Index); err != nil {
			return err
		}
		c.emit(Instr{Op: OpIndex, Line: ex.line})
	case *CallExpr:
		return c.compileCall(ex)
	default:
		l, col := e.Pos()
		return errAt(l, col, "internal: unknown expression %T", e)
	}
	return nil
}

func (c *funcCompiler) compileCall(ex *CallExpr) error {
	// spawn(fname, args...) is special syntax: the first argument names a
	// function to run in a new thread.
	if ex.Name == "spawn" {
		if len(ex.Args) == 0 {
			return errAt(ex.line, ex.col, "spawn needs a function name")
		}
		fnIdent, ok := ex.Args[0].(*Ident)
		if !ok {
			return errAt(ex.line, ex.col, "spawn's first argument must be a function name")
		}
		fi, ok := c.unit.FuncIndex[fnIdent.Name]
		if !ok {
			return errAt(fnIdent.line, fnIdent.col, "spawn of undefined function %q", fnIdent.Name)
		}
		want := c.unit.Funcs[fi].NumParams
		if got := len(ex.Args) - 1; got != want {
			return errAt(ex.line, ex.col, "spawn %s: %d args, function takes %d", fnIdent.Name, got, want)
		}
		for _, a := range ex.Args[1:] {
			if err := c.compileExpr(a); err != nil {
				return err
			}
		}
		c.emit(Instr{Op: OpSpawn, A: fi, B: len(ex.Args) - 1, Line: ex.line})
		return nil
	}
	if fi, ok := c.unit.FuncIndex[ex.Name]; ok {
		want := c.unit.Funcs[fi].NumParams
		if len(ex.Args) != want {
			return errAt(ex.line, ex.col, "call %s: %d args, function takes %d", ex.Name, len(ex.Args), want)
		}
		for _, a := range ex.Args {
			if err := c.compileExpr(a); err != nil {
				return err
			}
		}
		c.emit(Instr{Op: OpCall, A: fi, B: len(ex.Args), Line: ex.line})
		return nil
	}
	bi, ok := builtinIndex[ex.Name]
	if !ok {
		return errAt(ex.line, ex.col, "call of undefined function %q", ex.Name)
	}
	spec := builtins[bi]
	if spec.arity >= 0 && len(ex.Args) != spec.arity {
		return errAt(ex.line, ex.col, "builtin %s: %d args, takes %d", ex.Name, len(ex.Args), spec.arity)
	}
	for _, a := range ex.Args {
		if err := c.compileExpr(a); err != nil {
			return err
		}
	}
	c.emit(Instr{Op: OpCallBuiltin, A: bi, B: len(ex.Args), Line: ex.line})
	return nil
}

// Disassemble renders a unit's code for debugging and the compiler tests.
func (u *Unit) Disassemble() string {
	out := ""
	for _, f := range u.Funcs {
		out += fmt.Sprintf("func %s (params=%d locals=%d maxstack=%d)\n",
			f.Name, f.NumParams, f.NumLocals, f.MaxStack)
		for i, in := range f.Code {
			out += fmt.Sprintf("  %3d: %-16s a=%d b=%d c=%d\n", i, in.Op, in.A, in.B, in.C)
		}
	}
	return out
}
