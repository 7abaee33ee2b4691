package cc

import "repro/internal/isa"

// ---- AST constant folding (O2) ----

// foldFile folds constant subexpressions in every function body. It runs
// after semantic analysis so folded nodes inherit the checked types.
func foldFile(f *File) {
	for _, fn := range f.Funcs {
		foldStmt(fn.Body)
	}
}

func foldStmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			foldStmt(sub)
		}
	case *ExprStmt:
		st.X = foldExpr(st.X)
	case *LocalDecl:
		if st.Init != nil {
			st.Init = foldExpr(st.Init)
		}
	case *If:
		st.Cond = foldExpr(st.Cond)
		foldStmt(st.Then)
		if st.Else != nil {
			foldStmt(st.Else)
		}
	case *While:
		st.Cond = foldExpr(st.Cond)
		foldStmt(st.Body)
	case *For:
		if st.Init != nil {
			st.Init = foldExpr(st.Init)
		}
		if st.Cond != nil {
			st.Cond = foldExpr(st.Cond)
		}
		if st.Post != nil {
			st.Post = foldExpr(st.Post)
		}
		foldStmt(st.Body)
	case *DoWhile:
		foldStmt(st.Body)
		st.Cond = foldExpr(st.Cond)
	case *Switch:
		st.Cond = foldExpr(st.Cond)
		for gi := range st.Groups {
			for _, sub := range st.Groups[gi].Stmts {
				foldStmt(sub)
			}
		}
	case *Return:
		if st.X != nil {
			st.X = foldExpr(st.X)
		}
	case *ExpiresStmt:
		foldStmt(st.Body)
		if st.Catch != nil {
			foldStmt(st.Catch)
		}
	case *TimelyStmt:
		st.Deadline = foldExpr(st.Deadline)
		foldStmt(st.Body)
		if st.Else != nil {
			foldStmt(st.Else)
		}
	}
}

func constOf(e Expr) (int64, bool) {
	n, ok := e.(*NumLit)
	if !ok {
		return 0, false
	}
	// The machine sees a literal as the 32-bit word codegen pushes.
	return int64(int32(n.Val)), true
}

func lit(pos Pos, t *Type, v int64) *NumLit {
	n := &NumLit{exprBase: exprBase{P: pos}, Val: int64(int32(v))}
	n.setType(t)
	return n
}

func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Unary:
		x.X = foldExpr(x.X)
		if v, ok := constOf(x.X); ok {
			if op, ok := unaryOps[x.Op]; ok {
				return evalLit(x, op, v, 0)
			}
		}
		return x
	case *Binary:
		x.L = foldExpr(x.L)
		x.R = foldExpr(x.R)
		lv, lok := constOf(x.L)
		rv, rok := constOf(x.R)
		if !lok || !rok {
			// Algebraic identities with one constant operand.
			if rok {
				switch {
				case (x.Op == Plus || x.Op == Minus || x.Op == Shl || x.Op == Shr || x.Op == Pipe || x.Op == Caret) && rv == 0:
					return x.L
				case (x.Op == Star || x.Op == Slash) && rv == 1:
					return x.L
				}
			}
			if lok {
				switch {
				case x.Op == Plus && lv == 0:
					return x.R
				case x.Op == Star && lv == 1:
					return x.R
				}
			}
			return x
		}
		switch x.Op {
		case AndAnd:
			return lit(x.Pos(), x.Type(), b2i(lv != 0 && rv != 0))
		case OrOr:
			return lit(x.Pos(), x.Type(), b2i(lv != 0 || rv != 0))
		}
		if op, ok := binaryOp(x); ok {
			return evalLit(x, op, lv, rv)
		}
		return x
	case *Index:
		x.Idx = foldExpr(x.Idx)
		return x
	case *Call:
		for i := range x.Args {
			x.Args[i] = foldExpr(x.Args[i])
		}
		return x
	case *AssignExpr:
		x.R = foldExpr(x.R)
		if ix, ok := x.L.(*Index); ok {
			ix.Idx = foldExpr(ix.Idx)
		}
		return x
	case *Cond:
		x.C = foldExpr(x.C)
		x.T = foldExpr(x.T)
		x.F = foldExpr(x.F)
		if v, ok := constOf(x.C); ok {
			if v != 0 {
				return x.T
			}
			return x.F
		}
		return x
	}
	return e
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// evalLit folds e, whose operands are the constants l and r, to the
// literal the emitted opcode would compute, or returns e unchanged where
// the opcode would fault (a zero divisor).
func evalLit(e Expr, op isa.Op, l, r int64) Expr {
	v, ok := isa.Eval(op, uint32(l), uint32(r))
	if !ok {
		return e
	}
	return lit(e.Pos(), e.Type(), int64(v))
}

// ---- Bytecode peephole (O2) ----

// peephole simplifies the emitted instruction stream in place. It is
// careful never to merge across a label binding or touch a relocated
// immediate (relocations and labels reference instruction indices).
func (cg *codegen) peephole() {
	relocated := map[int]bool{}
	for _, r := range cg.relocs {
		relocated[r.Instr] = true
	}
	for pass := 0; pass < 4; pass++ {
		keep := make([]bool, len(cg.out))
		for i := range keep {
			keep[i] = true
		}
		changed := false
		for i := 0; i+1 < len(cg.out); i++ {
			if !keep[i] {
				continue
			}
			a, b := cg.out[i], cg.out[i+1]
			if relocated[i] || relocated[i+1] || cg.boundAt[i+1] {
				continue
			}
			// pushi 0; add|sub  and  pushi 1; mul|div → drop both.
			if a.Op == isa.PushI &&
				((a.Imm == 0 && (b.Op == isa.Add || b.Op == isa.Sub)) ||
					(a.Imm == 1 && (b.Op == isa.Mul || b.Op == isa.Div))) {
				keep[i], keep[i+1] = false, false
				changed = true
				continue
			}
			// lnot; jz → jnz  and  lnot; jnz → jz.
			if a.Op == isa.LNot && (b.Op == isa.Jz || b.Op == isa.Jnz) {
				keep[i] = false
				if b.Op == isa.Jz {
					cg.out[i+1].Op = isa.Jnz
				} else {
					cg.out[i+1].Op = isa.Jz
				}
				changed = true
				continue
			}
			// pushi a; pushi b; binop → pushi folded.
			// Only arithmetic (add through shr) folds; comparisons stay.
			if i+2 < len(cg.out) && a.Op == isa.PushI && b.Op == isa.PushI &&
				!relocated[i+2] && !cg.boundAt[i+2] && isa.Add <= cg.out[i+2].Op && cg.out[i+2].Op <= isa.Shr {
				if v, ok := isa.Eval(cg.out[i+2].Op, uint32(a.Imm), uint32(b.Imm)); ok {
					cg.out[i] = isa.Instr{Op: isa.PushI, Imm: int32(v)}
					keep[i+1], keep[i+2] = false, false
					changed = true
					continue
				}
			}
		}
		// jmp to the immediately following instruction → drop.
		for i, in := range cg.out {
			if !keep[i] || relocated[i] {
				continue
			}
			if in.Op == isa.Jmp && cg.labels[in.Imm] == i+1 {
				keep[i] = false
				changed = true
			}
		}
		// Unreachable code: instructions after an unconditional transfer
		// with no label bound before them can never execute. Relocated
		// instructions are dropped too — their relocations die with them
		// in compact().
		unreachable := false
		for i, in := range cg.out {
			if cg.boundAt[i] {
				unreachable = false
			}
			if unreachable && keep[i] {
				keep[i] = false
				changed = true
				continue
			}
			if keep[i] && (in.Op == isa.Jmp || in.Op == isa.Leave || in.Op == isa.Halt) {
				unreachable = true
			}
		}
		if !changed {
			return
		}
		cg.compact(keep, relocated)
	}
}

// compact removes dropped instructions and remaps labels, reloc indices and
// the bound-instruction set.
func (cg *codegen) compact(keep []bool, relocated map[int]bool) {
	newIdx := make([]int, len(cg.out)+1)
	n := 0
	for i := range cg.out {
		newIdx[i] = n
		if keep[i] {
			n++
		}
	}
	newIdx[len(cg.out)] = n
	out := make([]isa.Instr, 0, n)
	poss := make([]Pos, 0, n)
	for i, in := range cg.out {
		if keep[i] {
			out = append(out, in)
			poss = append(poss, cg.poss[i])
		}
	}
	cg.out = out
	cg.poss = poss
	for id, pos := range cg.labels {
		if pos >= 0 {
			cg.labels[id] = newIdx[pos]
		}
	}
	newBound := map[int]bool{}
	for pos := range cg.boundAt {
		newBound[newIdx[pos]] = true
	}
	cg.boundAt = newBound
	newRelocs := cg.relocs[:0]
	newRelocated := map[int]bool{}
	for _, r := range cg.relocs {
		if keep[r.Instr] {
			r.Instr = newIdx[r.Instr]
			newRelocs = append(newRelocs, r)
			newRelocated[r.Instr] = true
		}
	}
	cg.relocs = newRelocs
	for k := range relocated {
		delete(relocated, k)
	}
	for k := range newRelocated {
		relocated[k] = true
	}
}
