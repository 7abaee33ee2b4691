package cc

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// generate lowers an analyzed unit to relocatable bytecode.
func generate(unit *Unit, opts Options) (*Program, error) {
	if opts.StaticLocals && unit.HasRecursion {
		var names []string
		for _, fn := range unit.Funcs {
			if fn.Recursive {
				names = append(names, fn.Name)
			}
		}
		sort.Strings(names)
		return nil, fmt.Errorf("cc: static-locals mode (Chinchilla) cannot compile recursive functions: %v", names)
	}
	cg := &codegen{
		unit: unit,
		opts: opts,
		prog: &Program{
			FuncByName:   map[string]*Func{},
			OptLevel:     opts.OptLevel,
			StaticLocals: opts.StaticLocals,
			HasRecursion: unit.HasRecursion,
			UsesPointers: unit.UsesPointers,
			MainIndex:    unit.Main.Index,
		},
		globalInfo:  map[*GlobalDecl]int{},
		staticFrame: map[*Symbol]uint32{},
		staticSpan:  map[string][2]uint32{},
	}
	if err := cg.layoutGlobals(); err != nil {
		return nil, err
	}
	for _, fn := range unit.Funcs {
		f, err := cg.genFunc(fn)
		if err != nil {
			return nil, err
		}
		cg.prog.Funcs = append(cg.prog.Funcs, f)
		cg.prog.FuncByName[f.Name] = f
	}
	return cg.prog, nil
}

type codegen struct {
	unit *Unit
	opts Options
	prog *Program

	globalInfo  map[*GlobalDecl]int  // decl → index into prog.Globals
	staticFrame map[*Symbol]uint32   // static-locals mode: symbol → globals offset
	staticSpan  map[string][2]uint32 // static-locals mode: function → [base, end) in globals space

	// Per-function emission state.
	fn       *FuncDecl
	out      []isa.Instr
	poss     []Pos // source position of each emitted instruction
	curPos   Pos
	relocs   []Reloc
	labels   []int // label id → instruction index (-1 unbound)
	labelDep []int // label id → expected operand-stack depth (-1 unknown)
	boundAt  map[int]bool
	depth    int
	maxDepth int
	dead     bool
	epilogue int
	breakLbl []int
	contLbl  []int
}

// ---- Globals layout ----

func align4(n uint32) uint32 { return (n + 3) &^ 3 }

func (cg *codegen) layoutGlobals() error {
	var off uint32
	// Initialized globals first (.data).
	var image []byte
	add := func(g *GlobalDecl, init bool) {
		size := g.Type.Size()
		gi := GlobalInfo{
			Name:           g.Name,
			Offset:         off,
			Size:           size,
			ExpiresAfterMs: g.ExpiresAfterMs,
			ElemSize:       g.Type.Size(),
		}
		if g.Type.Kind == TArray {
			gi.ElemSize = g.Type.Elem.Size()
		}
		if init {
			buf := make([]byte, align4(uint32(size)))
			elem := g.Type
			if g.Type.Kind == TArray {
				elem = g.Type.Elem
			}
			for i, v := range g.Init {
				switch elem.Size() {
				case 1:
					buf[i] = byte(v)
				default:
					u := uint32(v)
					buf[4*i] = byte(u)
					buf[4*i+1] = byte(u >> 8)
					buf[4*i+2] = byte(u >> 16)
					buf[4*i+3] = byte(u >> 24)
				}
			}
			image = append(image, buf...)
		}
		off += align4(uint32(size))
		cg.globalInfo[g] = len(cg.prog.Globals)
		cg.prog.Globals = append(cg.prog.Globals, gi)
	}
	for _, g := range cg.unit.Globals {
		if len(g.Init) > 0 {
			add(g, true)
		}
	}
	cg.prog.DataBytes = off
	cg.prog.DataImage = image
	for _, g := range cg.unit.Globals {
		if len(g.Init) == 0 {
			add(g, false)
		}
	}
	// Shadow timestamp slots for annotated globals (.bss).
	for i := range cg.prog.Globals {
		gi := &cg.prog.Globals[i]
		if gi.ExpiresAfterMs < 0 {
			continue
		}
		n := 1
		if gi.ElemSize != gi.Size {
			n = gi.Size / gi.ElemSize
		}
		gi.TSOffset = off
		gi.TSCount = n
		off += uint32(4 * n)
	}
	// Static frames (Chinchilla mode).
	if cg.opts.StaticLocals {
		for _, fn := range cg.unit.Funcs {
			f := cg.prog.FuncByName[fn.Name] // not yet present; record on decl
			_ = f
			base := off
			for i := range fn.Params {
				sym := fn.Params[i].Sym
				cg.staticFrame[sym] = off
				off += align4(uint32(sym.Type.Size()))
			}
			collectLocals(fn.Body, func(d *LocalDecl) {
				cg.staticFrame[d.Sym] = off
				off += align4(uint32(d.Sym.Type.Size()))
			})
			cg.staticSpan[fn.Name] = [2]uint32{base, off}
		}
	}
	cg.prog.BSSBytes = off - cg.prog.DataBytes
	return nil
}

// collectLocals walks a statement tree calling fn for every declaration.
func collectLocals(s Stmt, fn func(*LocalDecl)) {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			collectLocals(sub, fn)
		}
	case *LocalDecl:
		fn(st)
	case *If:
		collectLocals(st.Then, fn)
		if st.Else != nil {
			collectLocals(st.Else, fn)
		}
	case *While:
		collectLocals(st.Body, fn)
	case *For:
		collectLocals(st.Body, fn)
	case *ExpiresStmt:
		collectLocals(st.Body, fn)
		if st.Catch != nil {
			collectLocals(st.Catch, fn)
		}
	case *TimelyStmt:
		collectLocals(st.Body, fn)
		if st.Else != nil {
			collectLocals(st.Else, fn)
		}
	case *DoWhile:
		collectLocals(st.Body, fn)
	case *Switch:
		for gi := range st.Groups {
			for _, sub := range st.Groups[gi].Stmts {
				collectLocals(sub, fn)
			}
		}
	}
}

// ---- Emission helpers ----

// stackPops/stackPushes give the static operand-stack effect of an opcode.
func stackEffect(op isa.Op) (pops, pushes int) {
	switch op {
	case isa.PushI, isa.AddrL, isa.GetRV, isa.Now, isa.LoadG, isa.LoadGB, isa.LoadL:
		return 0, 1
	case isa.Sense:
		return 0, 1
	case isa.Dup:
		return 1, 2
	case isa.Swap:
		return 2, 2
	case isa.Drop, isa.StoreG, isa.StoreGL, isa.StoreGB, isa.StoreGBL, isa.StoreL,
		isa.Jz, isa.Jnz, isa.SetRV, isa.Send, isa.SetTS, isa.Timely:
		return 1, 0
	case isa.Out:
		return 1, 0
	case isa.LoadI, isa.LoadIB, isa.Neg, isa.Not, isa.LNot:
		return 1, 1
	case isa.StoreI, isa.StoreIL, isa.StoreIB, isa.StoreIBL, isa.ExpBegin, isa.ExpCatch:
		return 2, 0
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
		isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
		return 2, 1
	}
	return 0, 0
}

func (cg *codegen) emit(op isa.Op, imm int32) int {
	idx := len(cg.out)
	cg.out = append(cg.out, isa.Instr{Op: op, Imm: imm})
	cg.poss = append(cg.poss, cg.curPos)
	if cg.dead {
		return idx
	}
	pops, pushes := stackEffect(op)
	if op == isa.AddSP {
		pops, pushes = int(imm/4), 0
	}
	cg.depth -= pops
	if cg.depth < 0 {
		panic(fmt.Sprintf("cc: operand stack underflow in %s at instr %d (%s)", cg.fn.Name, idx, op))
	}
	cg.depth += pushes
	if cg.depth > cg.maxDepth {
		cg.maxDepth = cg.depth
	}
	if op == isa.Call && cg.depth+1 > cg.maxDepth {
		cg.maxDepth = cg.depth + 1 // transient return-PC push
	}
	return idx
}

func (cg *codegen) emitReloc(op isa.Op, imm int32, kind RelocKind) {
	idx := cg.emit(op, imm)
	cg.relocs = append(cg.relocs, Reloc{Instr: idx, Kind: kind})
}

func (cg *codegen) newLabel() int {
	cg.labels = append(cg.labels, -1)
	cg.labelDep = append(cg.labelDep, -1)
	return len(cg.labels) - 1
}

// jumpTo emits a branch instruction whose immediate is a label id,
// recording the operand-stack depth expected at the target.
func (cg *codegen) jumpTo(op isa.Op, lbl int) {
	cg.emit(op, int32(lbl))
	if cg.dead {
		return
	}
	if cg.labelDep[lbl] == -1 {
		cg.labelDep[lbl] = cg.depth
	} else if cg.labelDep[lbl] != cg.depth {
		panic(fmt.Sprintf("cc: inconsistent stack depth at label %d in %s: %d vs %d",
			lbl, cg.fn.Name, cg.labelDep[lbl], cg.depth))
	}
	if op == isa.Jmp {
		cg.dead = true
	}
}

func (cg *codegen) bind(lbl int) {
	cg.labels[lbl] = len(cg.out)
	cg.boundAt[len(cg.out)] = true
	if cg.labelDep[lbl] != -1 {
		cg.depth = cg.labelDep[lbl]
	} else if cg.dead {
		cg.depth = 0
		cg.labelDep[lbl] = 0
	} else {
		cg.labelDep[lbl] = cg.depth
	}
	cg.dead = false
}

// ---- Function generation ----

func (cg *codegen) genFunc(fn *FuncDecl) (f *Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if msg, ok := r.(string); ok {
				err = fmt.Errorf("%s", msg)
				return
			}
			panic(r)
		}
	}()
	cg.fn = fn
	cg.out = nil
	cg.poss = nil
	cg.curPos = fn.P
	cg.relocs = nil
	cg.labels = nil
	cg.labelDep = nil
	cg.boundAt = map[int]bool{}
	cg.depth, cg.maxDepth = 0, 0
	cg.dead = false
	cg.breakLbl, cg.contLbl = nil, nil
	cg.epilogue = cg.newLabel()

	cg.emit(isa.Enter, int32(fn.Index))
	if err := cg.stmt(fn.Body); err != nil {
		return nil, err
	}
	cg.bind(cg.epilogue)
	cg.emit(isa.Leave, 0)

	if cg.opts.OptLevel >= 2 {
		cg.peephole()
	}
	f = &Func{
		Name:          fn.Name,
		Index:         fn.Index,
		NArgs:         len(fn.Params),
		StackArgWords: len(fn.Params),
		LocalBytes:    fn.LocalBytes,
		MaxEvalWords:  cg.maxDepth,
		Recursive:     fn.Recursive,
	}
	if cg.opts.StaticLocals {
		f.StackArgWords = 0
		f.LocalBytes = 0
		span := cg.staticSpan[fn.Name]
		f.StaticBase = span[0]
		f.StaticBytes = int(span[1] - span[0])
	}
	cg.resolve(f)
	return f, nil
}

// resolve converts label-id branch immediates to function-relative byte
// offsets and records branch relocations.
func (cg *codegen) resolve(f *Func) {
	offs := make([]int, len(cg.out)+1)
	for i, in := range cg.out {
		offs[i+1] = offs[i] + in.Size()
	}
	for i := range cg.out {
		in := &cg.out[i]
		switch in.Op {
		case isa.Jmp, isa.Jz, isa.Jnz, isa.ExpBegin, isa.ExpCatch, isa.Timely:
			target := cg.labels[in.Imm]
			if target < 0 {
				panic(fmt.Sprintf("cc: unbound label %d in %s", in.Imm, f.Name))
			}
			in.Imm = int32(offs[target])
			cg.relocs = append(cg.relocs, Reloc{Instr: i, Kind: RelocBranch})
		}
	}
	f.Code = cg.out
	f.Poss = cg.poss
	f.Relocs = cg.relocs
}

// ---- Statements ----

func (cg *codegen) stmt(s Stmt) error {
	cg.curPos = s.Pos()
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			if err := cg.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		return cg.expr(st.X, false)
	case *LocalDecl:
		if st.Init == nil {
			return nil
		}
		if err := cg.expr(st.Init, true); err != nil {
			return err
		}
		cg.storeSym(st.Sym)
		return nil
	case *If:
		elseLbl := cg.newLabel()
		if err := cg.expr(st.Cond, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jz, elseLbl)
		if err := cg.stmt(st.Then); err != nil {
			return err
		}
		if st.Else == nil {
			cg.bind(elseLbl)
			return nil
		}
		endLbl := cg.newLabel()
		cg.jumpTo(isa.Jmp, endLbl)
		cg.bind(elseLbl)
		if err := cg.stmt(st.Else); err != nil {
			return err
		}
		cg.bind(endLbl)
		return nil
	case *While:
		start := cg.newLabel()
		end := cg.newLabel()
		cg.bind(start)
		if err := cg.expr(st.Cond, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jz, end)
		cg.breakLbl = append(cg.breakLbl, end)
		cg.contLbl = append(cg.contLbl, start)
		if err := cg.stmt(st.Body); err != nil {
			return err
		}
		cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
		cg.contLbl = cg.contLbl[:len(cg.contLbl)-1]
		cg.jumpTo(isa.Jmp, start)
		cg.bind(end)
		return nil
	case *For:
		if st.Init != nil {
			if err := cg.expr(st.Init, false); err != nil {
				return err
			}
		}
		cond := cg.newLabel()
		post := cg.newLabel()
		end := cg.newLabel()
		cg.bind(cond)
		if st.Cond != nil {
			if err := cg.expr(st.Cond, true); err != nil {
				return err
			}
			cg.jumpTo(isa.Jz, end)
		}
		cg.breakLbl = append(cg.breakLbl, end)
		cg.contLbl = append(cg.contLbl, post)
		if err := cg.stmt(st.Body); err != nil {
			return err
		}
		cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
		cg.contLbl = cg.contLbl[:len(cg.contLbl)-1]
		cg.bind(post)
		if st.Post != nil {
			if err := cg.expr(st.Post, false); err != nil {
				return err
			}
		}
		cg.jumpTo(isa.Jmp, cond)
		cg.bind(end)
		return nil
	case *Return:
		if st.X != nil {
			if err := cg.expr(st.X, true); err != nil {
				return err
			}
			cg.emit(isa.SetRV, 0)
		}
		cg.jumpTo(isa.Jmp, cg.epilogue)
		return nil
	case *Break:
		cg.jumpTo(isa.Jmp, cg.breakLbl[len(cg.breakLbl)-1])
		return nil
	case *Continue:
		cg.jumpTo(isa.Jmp, cg.contLbl[len(cg.contLbl)-1])
		return nil
	case *DoWhile:
		start := cg.newLabel()
		cont := cg.newLabel()
		end := cg.newLabel()
		cg.bind(start)
		cg.breakLbl = append(cg.breakLbl, end)
		cg.contLbl = append(cg.contLbl, cont)
		if err := cg.stmt(st.Body); err != nil {
			return err
		}
		cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
		cg.contLbl = cg.contLbl[:len(cg.contLbl)-1]
		cg.bind(cont)
		if err := cg.expr(st.Cond, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jnz, start)
		cg.bind(end)
		return nil
	case *Switch:
		return cg.switchStmt(st)
	case *ExpiresStmt:
		return cg.expiresStmt(st)
	case *TimelyStmt:
		return cg.timelyStmt(st)
	}
	return fmt.Errorf("cc: unhandled statement %T", s)
}

// switchStmt lowers a C switch: the value is spilled to a hidden frame
// slot, a compare chain dispatches to the matching group, and groups fall
// through in source order (break jumps past the end).
func (cg *codegen) switchStmt(st *Switch) error {
	if err := cg.expr(st.Cond, true); err != nil {
		return err
	}
	spill := st.TempOff
	if cg.opts.StaticLocals {
		// Promoted-locals builds have no frame; keep the value on the
		// operand stack via repeated Dup instead.
		return cg.switchOnStack(st)
	}
	cg.emit(isa.StoreL, spill)
	end := cg.newLabel()
	bodyLbl := make([]int, len(st.Groups))
	defaultLbl := end
	for gi := range st.Groups {
		bodyLbl[gi] = cg.newLabel()
		if st.Groups[gi].IsDefault {
			defaultLbl = bodyLbl[gi]
		}
		for _, v := range st.Groups[gi].Vals {
			cg.emit(isa.LoadL, spill)
			cg.emit(isa.PushI, int32(v))
			cg.emit(isa.CmpEq, 0)
			cg.jumpTo(isa.Jnz, bodyLbl[gi])
		}
	}
	cg.jumpTo(isa.Jmp, defaultLbl)
	cg.breakLbl = append(cg.breakLbl, end)
	for gi := range st.Groups {
		cg.bind(bodyLbl[gi])
		for _, sub := range st.Groups[gi].Stmts {
			if err := cg.stmt(sub); err != nil {
				return err
			}
		}
	}
	cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
	cg.bind(end)
	return nil
}

// switchOnStack is the static-locals lowering: the switch value is not
// spillable to a frame slot, so the dispatch chain re-evaluates against a
// Dup'd copy and each body label drops it on entry.
func (cg *codegen) switchOnStack(st *Switch) error {
	end := cg.newLabel()
	bodyLbl := make([]int, len(st.Groups))
	dropLbl := make([]int, len(st.Groups))
	defaultDrop := -1
	for gi := range st.Groups {
		bodyLbl[gi] = cg.newLabel()
		dropLbl[gi] = cg.newLabel()
		if st.Groups[gi].IsDefault {
			defaultDrop = gi
		}
		for _, v := range st.Groups[gi].Vals {
			cg.emit(isa.Dup, 0)
			cg.emit(isa.PushI, int32(v))
			cg.emit(isa.CmpEq, 0)
			cg.jumpTo(isa.Jnz, dropLbl[gi])
		}
	}
	if defaultDrop >= 0 {
		cg.jumpTo(isa.Jmp, dropLbl[defaultDrop])
	} else {
		cg.emit(isa.Drop, 0)
		cg.jumpTo(isa.Jmp, end)
	}
	cg.breakLbl = append(cg.breakLbl, end)
	for gi := range st.Groups {
		cg.bind(dropLbl[gi])
		cg.emit(isa.Drop, 0)
		cg.bind(bodyLbl[gi])
		for _, sub := range st.Groups[gi].Stmts {
			if err := cg.stmt(sub); err != nil {
				return err
			}
		}
		// Fallthrough goes to the next group's *body* (skipping its drop).
		if gi+1 < len(st.Groups) {
			cg.jumpTo(isa.Jmp, bodyLbl[gi+1])
		}
	}
	cg.breakLbl = cg.breakLbl[:len(cg.breakLbl)-1]
	cg.bind(end)
	return nil
}

// pushTSAddr pushes the shadow-timestamp slot address for an annotated
// lvalue (a global scalar or an element of a global array) and returns the
// annotation's duration.
func (cg *codegen) pushTSAddr(lv Expr) (durMs int64, err error) {
	switch e := lv.(type) {
	case *VarRef:
		gi := cg.prog.Globals[cg.globalInfo[e.Sym.Global]]
		cg.emitReloc(isa.PushI, int32(gi.TSOffset), RelocGlobal)
		return gi.ExpiresAfterMs, nil
	case *Index:
		base := e.Base.(*VarRef)
		gi := cg.prog.Globals[cg.globalInfo[base.Sym.Global]]
		if err := cg.expr(e.Idx, true); err != nil {
			return 0, err
		}
		cg.emit(isa.PushI, 4)
		cg.emit(isa.Mul, 0)
		cg.emitReloc(isa.PushI, int32(gi.TSOffset), RelocGlobal)
		cg.emit(isa.Add, 0)
		return gi.ExpiresAfterMs, nil
	}
	return 0, errf(lv.Pos(), "not a time-annotated lvalue")
}

func (cg *codegen) expiresStmt(st *ExpiresStmt) error {
	cg.emit(isa.CpDis, 0)
	cg.emit(isa.Chkpt, 0)
	dur, err := cg.pushTSAddr(st.LV)
	if err != nil {
		return err
	}
	cg.emit(isa.PushI, int32(dur))
	if st.Catch == nil {
		skip := cg.newLabel()
		cg.jumpTo(isa.ExpBegin, skip)
		if err := cg.stmt(st.Body); err != nil {
			return err
		}
		cg.bind(skip)
	} else {
		catch := cg.newLabel()
		end := cg.newLabel()
		cg.jumpTo(isa.ExpCatch, catch)
		if err := cg.stmt(st.Body); err != nil {
			return err
		}
		cg.emit(isa.ExpEnd, 0)
		cg.jumpTo(isa.Jmp, end)
		cg.bind(catch)
		cg.emit(isa.ExpEnd, 0)
		if err := cg.stmt(st.Catch); err != nil {
			return err
		}
		cg.bind(end)
	}
	cg.emit(isa.Chkpt, 0)
	cg.emit(isa.CpEn, 0)
	return nil
}

func (cg *codegen) timelyStmt(st *TimelyStmt) error {
	cg.emit(isa.CpDis, 0)
	cg.emit(isa.Chkpt, 0)
	if err := cg.expr(st.Deadline, true); err != nil {
		return err
	}
	elseLbl := cg.newLabel()
	cg.jumpTo(isa.Timely, elseLbl)
	if err := cg.stmt(st.Body); err != nil {
		return err
	}
	if st.Else == nil {
		cg.bind(elseLbl)
	} else {
		end := cg.newLabel()
		cg.jumpTo(isa.Jmp, end)
		cg.bind(elseLbl)
		if err := cg.stmt(st.Else); err != nil {
			return err
		}
		cg.bind(end)
	}
	cg.emit(isa.Chkpt, 0)
	cg.emit(isa.CpEn, 0)
	return nil
}

// ---- Expressions ----

func (cg *codegen) expr(e Expr, need bool) error {
	switch x := e.(type) {
	case *AssignExpr:
		return cg.assign(x, need)
	case *IncDec:
		return cg.incDec(x, need)
	case *Call:
		return cg.call(x, need)
	case *Cond:
		elseLbl := cg.newLabel()
		end := cg.newLabel()
		if err := cg.expr(x.C, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jz, elseLbl)
		if err := cg.expr(x.T, need); err != nil {
			return err
		}
		cg.jumpTo(isa.Jmp, end)
		cg.bind(elseLbl)
		if err := cg.expr(x.F, need); err != nil {
			return err
		}
		cg.bind(end)
		return nil
	}
	// Value-producing forms: evaluate, then drop if unused.
	if err := cg.exprValue(e); err != nil {
		return err
	}
	if !need {
		cg.emit(isa.Drop, 0)
	}
	return nil
}

func (cg *codegen) exprValue(e Expr) error {
	switch x := e.(type) {
	case *NumLit:
		cg.emit(isa.PushI, int32(x.Val))
		return nil
	case *VarRef:
		cg.loadSym(x.Sym)
		return nil
	case *Unary:
		switch x.Op {
		case Minus, Tilde, Bang:
			if err := cg.expr(x.X, true); err != nil {
				return err
			}
			cg.emit(unaryOps[x.Op], 0)
			return nil
		case Star:
			if err := cg.expr(x.X, true); err != nil {
				return err
			}
			cg.loadIndirect(x.Type())
			return nil
		case Amp:
			return cg.addr(x.X)
		}
		return errf(x.Pos(), "unhandled unary %s", x.Op)
	case *Binary:
		return cg.binary(x)
	case *Index:
		if err := cg.addr(x); err != nil {
			return err
		}
		cg.loadIndirect(x.Type())
		return nil
	}
	return errf(e.Pos(), "unhandled expression %T", e)
}

func (cg *codegen) loadIndirect(t *Type) {
	if t.Size() == 1 {
		cg.emit(isa.LoadIB, 0)
	} else if t.Kind == TArray {
		// Address of a nested aggregate is its value; nothing to load.
	} else {
		cg.emit(isa.LoadI, 0)
	}
}

func (cg *codegen) storeIndirect(t *Type) {
	if t.Size() == 1 {
		cg.emit(isa.StoreIB, 0)
	} else {
		cg.emit(isa.StoreI, 0)
	}
}

func (cg *codegen) binary(x *Binary) error {
	switch x.Op {
	case AndAnd, OrOr:
		// Short-circuit evaluation producing 0/1.
		falseLbl := cg.newLabel()
		end := cg.newLabel()
		if x.Op == AndAnd {
			if err := cg.expr(x.L, true); err != nil {
				return err
			}
			cg.jumpTo(isa.Jz, falseLbl)
			if err := cg.expr(x.R, true); err != nil {
				return err
			}
			cg.jumpTo(isa.Jz, falseLbl)
			cg.emit(isa.PushI, 1)
			cg.jumpTo(isa.Jmp, end)
			cg.bind(falseLbl)
			cg.emit(isa.PushI, 0)
			cg.bind(end)
			return nil
		}
		trueLbl := falseLbl
		if err := cg.expr(x.L, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jnz, trueLbl)
		if err := cg.expr(x.R, true); err != nil {
			return err
		}
		cg.jumpTo(isa.Jnz, trueLbl)
		cg.emit(isa.PushI, 0)
		cg.jumpTo(isa.Jmp, end)
		cg.bind(trueLbl)
		cg.emit(isa.PushI, 1)
		cg.bind(end)
		return nil
	}
	lt, rt := x.L.Type().Decay(), x.R.Type().Decay()
	if err := cg.expr(x.L, true); err != nil {
		return err
	}
	if x.Op == Plus && rt.Kind == TPtr && lt.IsInteger() {
		cg.scale(rt.Elem.Size())
	}
	if err := cg.expr(x.R, true); err != nil {
		return err
	}
	if (x.Op == Plus || x.Op == Minus) && lt.Kind == TPtr && rt.IsInteger() {
		cg.scale(lt.Elem.Size())
	}
	op, ok := binaryOp(x)
	if !ok {
		return errf(x.Pos(), "unhandled binary operator %s", x.Op)
	}
	cg.emit(op, 0)
	// Pointer difference yields an element count.
	if x.Op == Minus && lt.Kind == TPtr && rt.Kind == TPtr && lt.Elem.Size() > 1 {
		cg.emit(isa.PushI, int32(lt.Elem.Size()))
		cg.emit(isa.Div, 0)
	}
	return nil
}

// unaryOps maps each C unary operator that is one opcode to it.
var unaryOps = map[Kind]isa.Op{Minus: isa.Neg, Tilde: isa.Not, Bang: isa.LNot}

// binaryOps maps each C binary operator that is one opcode (all but &&
// and ||) to that opcode for signed and for unsigned operands. Codegen
// emits from it and the AST folder evaluates from it, so a folded
// constant is what the emitted instruction computes (isa.Eval).
var binaryOps = map[Kind][2]isa.Op{
	Plus: {isa.Add, isa.Add}, Minus: {isa.Sub, isa.Sub}, Star: {isa.Mul, isa.Mul},
	Slash: {isa.Div, isa.Div}, Percent: {isa.Mod, isa.Mod},
	Amp: {isa.And, isa.And}, Pipe: {isa.Or, isa.Or}, Caret: {isa.Xor, isa.Xor},
	Shl: {isa.Shl, isa.Shl}, Shr: {isa.Shr, isa.Shr},
	EqEq: {isa.CmpEq, isa.CmpEq}, NotEq: {isa.CmpNe, isa.CmpNe},
	Lt: {isa.CmpLt, isa.CmpLtU}, Le: {isa.CmpLe, isa.CmpLeU},
	Gt: {isa.CmpGt, isa.CmpGtU}, Ge: {isa.CmpGe, isa.CmpGeU},
}

// binaryOp returns x's opcode: the unsigned form if either operand's
// type is unsigned (uint, char or a pointer).
func binaryOp(x *Binary) (isa.Op, bool) {
	ops, ok := binaryOps[x.Op]
	if x.L.Type().Decay().IsUnsigned() || x.R.Type().Decay().IsUnsigned() {
		return ops[1], ok
	}
	return ops[0], ok
}

// scale multiplies the value on top of the stack by an element size.
func (cg *codegen) scale(size int) {
	if size > 1 {
		cg.emit(isa.PushI, int32(size))
		cg.emit(isa.Mul, 0)
	}
}

// addr pushes the address of an lvalue.
func (cg *codegen) addr(e Expr) error {
	switch x := e.(type) {
	case *VarRef:
		cg.pushSymAddr(x.Sym)
		return nil
	case *Index:
		if err := cg.expr(x.Base, true); err != nil {
			return err
		}
		if err := cg.expr(x.Idx, true); err != nil {
			return err
		}
		cg.scale(x.Type().Size())
		cg.emit(isa.Add, 0)
		return nil
	case *Unary:
		if x.Op == Star {
			return cg.expr(x.X, true)
		}
	}
	return errf(e.Pos(), "expression is not an lvalue")
}

// ---- Symbol access ----

func (cg *codegen) globalOffset(sym *Symbol) int32 {
	return int32(cg.prog.Globals[cg.globalInfo[sym.Global]].Offset)
}

func (cg *codegen) pushSymAddr(sym *Symbol) {
	switch {
	case sym.Kind == SymGlobal:
		cg.emitReloc(isa.PushI, cg.globalOffset(sym), RelocGlobal)
	case cg.opts.StaticLocals:
		cg.emitReloc(isa.PushI, int32(cg.staticFrame[sym]), RelocGlobal)
	default:
		cg.emit(isa.AddrL, sym.FPOff)
	}
}

func (cg *codegen) loadSym(sym *Symbol) {
	if sym.Type.Kind == TArray {
		cg.pushSymAddr(sym)
		return
	}
	switch {
	case sym.Kind == SymGlobal:
		if sym.Type.Size() == 1 {
			cg.emitReloc(isa.LoadGB, cg.globalOffset(sym), RelocGlobal)
		} else {
			cg.emitReloc(isa.LoadG, cg.globalOffset(sym), RelocGlobal)
		}
	case cg.opts.StaticLocals:
		off := int32(cg.staticFrame[sym])
		if sym.Type.Size() == 1 {
			cg.emitReloc(isa.LoadGB, off, RelocGlobal)
		} else {
			cg.emitReloc(isa.LoadG, off, RelocGlobal)
		}
	default:
		cg.emit(isa.LoadL, sym.FPOff)
	}
}

// storeSym stores the value on top of the stack into a symbol.
func (cg *codegen) storeSym(sym *Symbol) {
	switch {
	case sym.Kind == SymGlobal:
		if sym.Type.Size() == 1 {
			cg.emitReloc(isa.StoreGB, cg.globalOffset(sym), RelocGlobal)
		} else {
			cg.emitReloc(isa.StoreG, cg.globalOffset(sym), RelocGlobal)
		}
	case cg.opts.StaticLocals:
		off := int32(cg.staticFrame[sym])
		if sym.Type.Size() == 1 {
			cg.emitReloc(isa.StoreGB, off, RelocGlobal)
		} else {
			cg.emitReloc(isa.StoreG, off, RelocGlobal)
		}
	default:
		if sym.Type.Size() == 1 {
			cg.emit(isa.PushI, 255)
			cg.emit(isa.And, 0)
		}
		cg.emit(isa.StoreL, sym.FPOff)
	}
}

// ---- Assignment ----

// compoundOp maps compound-assignment tokens to their ALU opcode.
var compoundOp = map[Kind]isa.Op{
	PlusAssign:  isa.Add,
	MinusAssign: isa.Sub,
	StarAssign:  isa.Mul,
	AmpAssign:   isa.And,
	PipeAssign:  isa.Or,
	CaretAssign: isa.Xor,
	ShlAssign:   isa.Shl,
	ShrAssign:   isa.Shr,
}

func (cg *codegen) assign(x *AssignExpr, need bool) error {
	cg.curPos = x.Pos()
	if x.Op == AtAssign {
		if need {
			return errf(x.Pos(), "@= cannot be used as a value")
		}
		return cg.atAssign(x)
	}
	lt := x.L.Type()
	if v, ok := x.L.(*VarRef); ok {
		if op, compound := compoundOp[x.Op]; compound {
			cg.loadSym(v.Sym)
			if err := cg.expr(x.R, true); err != nil {
				return err
			}
			if (x.Op == PlusAssign || x.Op == MinusAssign) && lt.Decay().Kind == TPtr {
				cg.scale(lt.Decay().Elem.Size())
			}
			cg.emit(op, 0)
		} else {
			if err := cg.expr(x.R, true); err != nil {
				return err
			}
		}
		if need {
			cg.emit(isa.Dup, 0)
		}
		cg.storeSym(v.Sym)
		return nil
	}
	// Indirect target (array element or pointer dereference).
	if err := cg.addr(x.L); err != nil {
		return err
	}
	switch x.Op {
	case Assign:
		if need {
			cg.emit(isa.Dup, 0)
		}
		if err := cg.expr(x.R, true); err != nil {
			return err
		}
		cg.storeIndirect(lt)
		if need {
			cg.loadIndirect(lt)
		}
		return nil
	case PlusAssign, MinusAssign, StarAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign:
		if need {
			return errf(x.Pos(), "compound assignment to a memory target cannot be used as a value")
		}
		cg.emit(isa.Dup, 0)
		cg.loadIndirect(lt)
		if err := cg.expr(x.R, true); err != nil {
			return err
		}
		if (x.Op == PlusAssign || x.Op == MinusAssign) && lt.Decay().Kind == TPtr {
			cg.scale(lt.Decay().Elem.Size())
		}
		cg.emit(compoundOp[x.Op], 0)
		cg.storeIndirect(lt)
		return nil
	}
	return errf(x.Pos(), "unhandled assignment %s", x.Op)
}

// atAssign lowers the TICS atomic data+timestamp assignment: the value
// store and the shadow-timestamp update form one atomic block bounded by a
// checkpoint, with automatic checkpoints disabled inside (paper §3.2.2).
func (cg *codegen) atAssign(x *AssignExpr) error {
	cg.emit(isa.CpDis, 0)
	switch lv := x.L.(type) {
	case *VarRef:
		if err := cg.expr(x.R, true); err != nil {
			return err
		}
		cg.storeSym(lv.Sym)
		if _, err := cg.pushTSAddr(lv); err != nil {
			return err
		}
		cg.emit(isa.SetTS, 0)
	case *Index:
		base := lv.Base.(*VarRef)
		gi := cg.prog.Globals[cg.globalInfo[base.Sym.Global]]
		if err := cg.expr(lv.Idx, true); err != nil {
			return err
		}
		cg.emit(isa.Dup, 0)
		cg.scale(gi.ElemSize)
		cg.emitReloc(isa.PushI, int32(gi.Offset), RelocGlobal)
		cg.emit(isa.Add, 0)
		if err := cg.expr(x.R, true); err != nil {
			return err
		}
		cg.storeIndirect(lv.Type())
		// Index still on the stack: compute the timestamp slot address.
		cg.emit(isa.PushI, 4)
		cg.emit(isa.Mul, 0)
		cg.emitReloc(isa.PushI, int32(gi.TSOffset), RelocGlobal)
		cg.emit(isa.Add, 0)
		cg.emit(isa.SetTS, 0)
	default:
		return errf(x.Pos(), "@= target must be an annotated global or element")
	}
	cg.emit(isa.Chkpt, 0)
	cg.emit(isa.CpEn, 0)
	return nil
}

func (cg *codegen) incDec(x *IncDec, need bool) error {
	v, ok := x.X.(*VarRef)
	if !ok {
		return errf(x.Pos(), "++/-- is only supported on named variables")
	}
	t := x.X.Type()
	step := int32(1)
	if t.Decay().Kind == TPtr {
		step = int32(t.Decay().Elem.Size())
	}
	cg.loadSym(v.Sym)
	if need && !x.Prefix {
		cg.emit(isa.Dup, 0)
		cg.emit(isa.PushI, step)
		if x.Op == PlusPlus {
			cg.emit(isa.Add, 0)
		} else {
			cg.emit(isa.Sub, 0)
		}
		cg.storeSym(v.Sym)
		return nil
	}
	cg.emit(isa.PushI, step)
	if x.Op == PlusPlus {
		cg.emit(isa.Add, 0)
	} else {
		cg.emit(isa.Sub, 0)
	}
	if need {
		cg.emit(isa.Dup, 0)
	}
	cg.storeSym(v.Sym)
	return nil
}

// ---- Calls ----

func (cg *codegen) call(x *Call, need bool) error {
	cg.curPos = x.Pos()
	if x.Builtin != NotBuiltin {
		return cg.builtin(x, need)
	}
	fn := x.Fn
	if cg.opts.StaticLocals {
		// Chinchilla-style: arguments go directly into the callee's static
		// parameter slots.
		for i, arg := range x.Args {
			if err := cg.expr(arg, true); err != nil {
				return err
			}
			sym := fn.Params[i].Sym
			off := int32(cg.staticFrame[sym])
			if sym.Type.Size() == 1 {
				cg.emitReloc(isa.StoreGB, off, RelocGlobal)
			} else {
				cg.emitReloc(isa.StoreG, off, RelocGlobal)
			}
		}
		cg.emitReloc(isa.Call, int32(fn.Index), RelocFuncEntry)
	} else {
		// Push arguments right-to-left so parameter j lands at FP+8+4j.
		for i := len(x.Args) - 1; i >= 0; i-- {
			if err := cg.expr(x.Args[i], true); err != nil {
				return err
			}
		}
		cg.emitReloc(isa.Call, int32(fn.Index), RelocFuncEntry)
		if len(x.Args) > 0 {
			cg.emit(isa.AddSP, int32(4*len(x.Args)))
		}
	}
	if need {
		if fn.Ret.Kind == TVoid {
			return errf(x.Pos(), "void value of %s used", fn.Name)
		}
		cg.emit(isa.GetRV, 0)
	}
	return nil
}

func (cg *codegen) builtin(x *Call, need bool) error {
	constArg := func(i int) int32 { return int32(x.Args[i].(*NumLit).Val) }
	switch x.Builtin {
	case BSense:
		cg.emit(isa.Sense, constArg(0))
		if !need {
			cg.emit(isa.Drop, 0)
		}
		return nil
	case BNow:
		cg.emit(isa.Now, 0)
		if !need {
			cg.emit(isa.Drop, 0)
		}
		return nil
	case BSend:
		if err := cg.expr(x.Args[0], true); err != nil {
			return err
		}
		cg.emit(isa.Send, 0)
	case BOut:
		if err := cg.expr(x.Args[1], true); err != nil {
			return err
		}
		cg.emit(isa.Out, constArg(0))
	case BMark:
		id := constArg(0)
		if int(id)+1 > cg.prog.MarkCount {
			cg.prog.MarkCount = int(id) + 1
		}
		cg.emit(isa.Mark, id)
	case BCheckpoint:
		cg.emit(isa.Chkpt, 0)
	case BTransitionTo:
		cg.emit(isa.TransTo, constArg(0))
	default:
		return errf(x.Pos(), "unhandled builtin %s", x.Name)
	}
	if need {
		return errf(x.Pos(), "void value of %s used", x.Name)
	}
	return nil
}
