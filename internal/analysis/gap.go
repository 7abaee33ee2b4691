package analysis

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/energy"
)

// Checkpoint-gap analysis (TV008), in the style of ETAP-like static
// energy bounding: an atomic region (@expires / @timely body, or a @=
// assignment) disables checkpointing for its whole extent, so the device
// must execute the entire region on the charge it holds at region entry.
// A region whose worst-case cycle cost has no static bound — a loop with
// no inferable trip count, a call into a recursion cycle — may never
// complete under intermittent power: every reboot restarts it from the
// leading checkpoint and the capacitor drains before the trailing one.
// With a capacitor budget configured, a bounded region whose worst case
// exceeds the budget is reported as an error with the numbers.
//
// Costs are worst-case over-approximations from the AST using the
// calibrated energy.CostModel; loop bounds are inferred for counted
// for-loops (constant init/limit/step) and shift-descent while-loops
// (`b = b >> k` converges in at most 32/k steps on 32-bit values).

// cost is a possibly-unbounded cycle count.
type cost struct {
	cycles  int64
	bounded bool
	why     string // for unbounded: the innermost reason
}

func bounded(c int64) cost          { return cost{cycles: c, bounded: true} }
func unboundedCost(why string) cost { return cost{why: why} }
func (c cost) plus(d cost) cost {
	if !c.bounded {
		return c
	}
	if !d.bounded {
		return d
	}
	return bounded(c.cycles + d.cycles)
}
func (c cost) times(n int64) cost {
	if !c.bounded {
		return c
	}
	return bounded(c.cycles * n)
}
func maxCost(c, d cost) cost {
	if !c.bounded {
		return c
	}
	if !d.bounded {
		return d
	}
	if d.cycles > c.cycles {
		return d
	}
	return c
}

type gapAnalyzer struct {
	model  energy.CostModel
	budget int64
	funcs  map[string]*cc.FuncDecl
	// memoized whole-function worst-case costs; inProgress marks functions
	// on the current walk so recursion cycles resolve to unbounded.
	fnCost     map[string]cost
	inProgress map[string]bool
	diags      []Diagnostic
	curFn      string
}

// runGap analyzes every atomic region in the program under the cost model
// the machine charges (energy.Default), which is what keeps TV008's bound
// sound. budget <= 0 means structural checking only (unbounded regions are
// still reported).
func runGap(unit *cc.Unit, budget int64) []Diagnostic {
	g := &gapAnalyzer{
		model: energy.Default(), budget: budget,
		funcs:      map[string]*cc.FuncDecl{},
		fnCost:     map[string]cost{},
		inProgress: map[string]bool{},
	}
	for _, fn := range unit.Funcs {
		g.funcs[fn.Name] = fn
	}
	for _, fn := range unit.Funcs {
		g.curFn = fn.Name
		g.findRegions(fn.Body)
	}
	sortDiags(g.diags)
	return g.diags
}

// findRegions walks a function body looking for atomic regions; nested
// regions are reported independently (the outer region's cost includes
// the inner body).
func (g *gapAnalyzer) findRegions(s cc.Stmt) {
	switch st := s.(type) {
	case *cc.Block:
		for _, sub := range st.Stmts {
			g.findRegions(sub)
		}
	case *cc.ExprStmt:
		if as, ok := st.X.(*cc.AssignExpr); ok && as.Op == cc.AtAssign {
			// @= lowers to CpDis …store+SetTS… Chkpt CpEn.
			c := g.exprCost(as.R).
				plus(bounded(g.model.TimestampWrite)).
				plus(bounded(g.model.CheckpointCost(0)))
			g.checkRegion("@= atomic assignment", as.Pos(), c)
		}
	case *cc.If:
		g.findRegions(st.Then)
		if st.Else != nil {
			g.findRegions(st.Else)
		}
	case *cc.While:
		g.findRegions(st.Body)
	case *cc.DoWhile:
		g.findRegions(st.Body)
	case *cc.For:
		g.findRegions(st.Body)
	case *cc.Switch:
		for gi := range st.Groups {
			for _, sub := range st.Groups[gi].Stmts {
				g.findRegions(sub)
			}
		}
	case *cc.ExpiresStmt:
		// @expires lowers to CpDis Chkpt …body… Chkpt CpEn: the region spans
		// the leading and trailing checkpoints plus the whole body.
		c := bounded(2 * g.model.CheckpointCost(0)).plus(g.stmtCost(st.Body))
		name := "@expires region"
		if gname := globalTarget(st.LV); gname != "" {
			name = fmt.Sprintf("@expires(%s) region", gname)
		}
		g.checkRegion(name, st.Pos(), c)
		g.findRegions(st.Body)
		if st.Catch != nil {
			g.findRegions(st.Catch)
		}
	case *cc.TimelyStmt:
		c := bounded(2 * g.model.CheckpointCost(0)).plus(g.stmtCost(st.Body))
		g.checkRegion("@timely region", st.Pos(), c)
		g.findRegions(st.Body)
		if st.Else != nil {
			g.findRegions(st.Else)
		}
	}
}

func (g *gapAnalyzer) checkRegion(name string, pos cc.Pos, c cost) {
	if !c.bounded {
		g.diags = append(g.diags, Diagnostic{
			Code: CodeCheckpointGap, Severity: Warn, Pos: pos, Func: g.curFn,
			Msg: fmt.Sprintf("%s has no static cycle bound (%s); checkpointing is disabled inside it, so it must complete on a single charge — under intermittent power it may restart forever", name, c.why),
		})
		return
	}
	if g.budget > 0 && c.cycles > g.budget {
		g.diags = append(g.diags, Diagnostic{
			Code: CodeCheckpointGap, Severity: Error, Pos: pos, Func: g.curFn,
			Msg: fmt.Sprintf("%s needs up to %d cycles but the capacitor budget is %d; the region can never complete on one charge and the program livelocks at this checkpoint gap", name, c.cycles, g.budget),
		})
	}
}

// ---- Worst-case statement and expression costs ----

func (g *gapAnalyzer) stmtCost(s cc.Stmt) cost {
	switch st := s.(type) {
	case nil:
		return bounded(0)
	case *cc.Block:
		c := bounded(0)
		for _, sub := range st.Stmts {
			c = c.plus(g.stmtCost(sub))
		}
		return c
	case *cc.ExprStmt:
		return g.exprCost(st.X)
	case *cc.LocalDecl:
		if st.Init != nil {
			return g.exprCost(st.Init).plus(bounded(g.model.InstrMem))
		}
		return bounded(0)
	case *cc.If:
		c := g.exprCost(st.Cond).plus(bounded(g.model.InstrCtl))
		return c.plus(maxCost(g.stmtCost(st.Then), g.stmtCost(st.Else)))
	case *cc.While:
		iter := g.exprCost(st.Cond).plus(bounded(g.model.InstrCtl)).plus(g.stmtCost(st.Body))
		n, ok := g.whileBound(st)
		if !ok {
			return unboundedCost("while loop with no inferable trip count")
		}
		return iter.times(n).plus(g.exprCost(st.Cond))
	case *cc.DoWhile:
		iter := g.stmtCost(st.Body).plus(g.exprCost(st.Cond)).plus(bounded(g.model.InstrCtl))
		n, ok := shiftDescentBound(st.Cond, st.Body)
		if !ok {
			return unboundedCost("do-while loop with no inferable trip count")
		}
		return iter.times(n)
	case *cc.For:
		c := bounded(0)
		if st.Init != nil {
			c = c.plus(g.exprCost(st.Init))
		}
		iter := g.stmtCost(st.Body).plus(bounded(g.model.InstrCtl))
		if st.Cond != nil {
			iter = iter.plus(g.exprCost(st.Cond))
		}
		if st.Post != nil {
			iter = iter.plus(g.exprCost(st.Post))
		}
		n, ok := forBound(st)
		if !ok {
			return unboundedCost("for loop with no inferable trip count")
		}
		return c.plus(iter.times(n))
	case *cc.Switch:
		// Worst case over fallthrough chains is bounded by the sum of all
		// groups; an over-approximation is fine for a worst-case bound.
		c := g.exprCost(st.Cond).plus(bounded(g.model.InstrCtl * int64(len(st.Groups))))
		for gi := range st.Groups {
			for _, sub := range st.Groups[gi].Stmts {
				c = c.plus(g.stmtCost(sub))
			}
		}
		return c
	case *cc.Return:
		c := bounded(g.model.InstrCtl)
		if st.X != nil {
			c = c.plus(g.exprCost(st.X))
		}
		return c
	case *cc.Break, *cc.Continue:
		return bounded(g.model.InstrCtl)
	case *cc.ExpiresStmt:
		c := bounded(2 * g.model.CheckpointCost(0)).plus(g.stmtCost(st.Body))
		if st.Catch != nil {
			c = maxCost(c, g.stmtCost(st.Catch))
		}
		return c
	case *cc.TimelyStmt:
		c := g.exprCost(st.Deadline).
			plus(bounded(2 * g.model.CheckpointCost(0))).
			plus(g.stmtCost(st.Body))
		if st.Else != nil {
			c = maxCost(c, g.stmtCost(st.Else))
		}
		return c
	}
	return bounded(0)
}

func (g *gapAnalyzer) exprCost(e cc.Expr) cost {
	switch x := e.(type) {
	case nil:
		return bounded(0)
	case *cc.NumLit:
		return bounded(g.model.Instr)
	case *cc.VarRef:
		if x.Sym != nil && x.Sym.Kind == cc.SymGlobal {
			return bounded(g.model.InstrMem + g.model.NVReadPerWord)
		}
		return bounded(g.model.InstrMem)
	case *cc.Unary:
		return g.exprCost(x.X).plus(bounded(g.model.Instr))
	case *cc.Binary:
		return g.exprCost(x.L).plus(g.exprCost(x.R)).plus(bounded(g.model.Instr))
	case *cc.Index:
		c := g.exprCost(x.Base).plus(g.exprCost(x.Idx)).plus(bounded(g.model.Instr))
		return c.plus(bounded(g.model.InstrMem + g.model.NVReadPerWord))
	case *cc.Cond:
		c := g.exprCost(x.C).plus(bounded(g.model.InstrCtl))
		return c.plus(maxCost(g.exprCost(x.T), g.exprCost(x.F)))
	case *cc.IncDec:
		return g.exprCost(x.X).plus(bounded(g.model.Instr + g.model.InstrMem + g.model.NVWritePerWord + g.model.UndoLogEntry))
	case *cc.AssignExpr:
		c := g.exprCost(x.R)
		if x.Op != cc.Assign && x.Op != cc.AtAssign {
			c = c.plus(g.exprCost(x.L)).plus(bounded(g.model.Instr))
		}
		// Inside an atomic region every NV store is undo-logged; charge the
		// worst case unconditionally.
		c = c.plus(bounded(g.model.InstrMem + g.model.NVWritePerWord + g.model.PtrCheck + g.model.UndoLogEntry))
		if x.Op == cc.AtAssign {
			c = c.plus(bounded(g.model.TimestampWrite))
		}
		return c
	case *cc.Call:
		c := bounded(0)
		for _, a := range x.Args {
			c = c.plus(g.exprCost(a))
		}
		switch x.Builtin {
		case cc.BSense:
			return c.plus(bounded(g.model.TrapBase + g.model.SenseExtra))
		case cc.BSend:
			return c.plus(bounded(g.model.TrapBase + g.model.SendExtra))
		case cc.BOut, cc.BMark:
			return c.plus(bounded(g.model.TrapBase))
		case cc.BNow:
			return c.plus(bounded(g.model.TrapBase + g.model.TimeRead))
		case cc.BCheckpoint:
			return c.plus(bounded(g.model.TrapBase + g.model.CheckpointCost(0)))
		case cc.BTransitionTo:
			return c.plus(bounded(g.model.TrapBase))
		}
		return c.plus(bounded(g.model.InstrCtl + g.model.StackGrow + g.model.StackShrink)).
			plus(g.funcCost(x.Name))
	}
	return bounded(0)
}

// funcCost is the memoized worst-case cost of one whole function call.
func (g *gapAnalyzer) funcCost(name string) cost {
	if c, ok := g.fnCost[name]; ok {
		return c
	}
	fn, ok := g.funcs[name]
	if !ok {
		return bounded(0)
	}
	if g.inProgress[name] {
		return unboundedCost(fmt.Sprintf("calls into recursion cycle through '%s'", name))
	}
	g.inProgress[name] = true
	c := g.stmtCost(fn.Body)
	g.inProgress[name] = false
	g.fnCost[name] = c
	return c
}

// ---- Loop-bound inference ----

// evalConst folds an expression made of literals and arithmetic.
func evalConst(e cc.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cc.NumLit:
		return x.Val, true
	case *cc.Unary:
		v, ok := evalConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case cc.Minus:
			return -v, true
		case cc.Tilde:
			return ^v, true
		case cc.Bang:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *cc.Binary:
		l, ok1 := evalConst(x.L)
		r, ok2 := evalConst(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case cc.Plus:
			return l + r, true
		case cc.Minus:
			return l - r, true
		case cc.Star:
			return l * r, true
		case cc.Slash:
			if r != 0 {
				return l / r, true
			}
		case cc.Shl:
			if r >= 0 && r < 63 {
				return l << uint(r), true
			}
		case cc.Shr:
			if r >= 0 && r < 63 {
				return l >> uint(r), true
			}
		}
	}
	return 0, false
}

// sameVar reports whether e is a reference to the named variable.
func sameVar(e cc.Expr, name string) bool {
	v, ok := e.(*cc.VarRef)
	return ok && v.Name == name
}

// forBound infers the trip count of a counted for-loop:
// `for (v = c0; v < c1; v++/v += k)` and the <=, >, >=, != variants.
func forBound(st *cc.For) (int64, bool) {
	as, ok := st.Init.(*cc.AssignExpr)
	if !ok || as.Op != cc.Assign {
		return 0, false
	}
	v, ok := as.L.(*cc.VarRef)
	if !ok {
		return 0, false
	}
	c0, ok := evalConst(as.R)
	if !ok {
		return 0, false
	}
	cond, ok := st.Cond.(*cc.Binary)
	if !ok || !sameVar(cond.L, v.Name) {
		return 0, false
	}
	c1, ok := evalConst(cond.R)
	if !ok {
		return 0, false
	}
	step, ok := stepOf(st.Post, v.Name)
	if !ok || step == 0 {
		return 0, false
	}
	var span int64
	switch cond.Op {
	case cc.Lt:
		span = c1 - c0
	case cc.Le:
		span = c1 - c0 + 1
	case cc.Gt:
		span = c0 - c1
	case cc.Ge:
		span = c0 - c1 + 1
	case cc.NotEq:
		span = c1 - c0
		if span < 0 {
			span = -span
		}
	default:
		return 0, false
	}
	if step < 0 {
		step = -step
	}
	if span <= 0 {
		return 0, true
	}
	return (span + step - 1) / step, true
}

// stepOf extracts the per-iteration step from a loop post expression:
// v++, v--, v += k, v -= k, v = v + k, v = v - k.
func stepOf(post cc.Expr, name string) (int64, bool) {
	switch x := post.(type) {
	case *cc.IncDec:
		if !sameVar(x.X, name) {
			return 0, false
		}
		if x.Op == cc.PlusPlus {
			return 1, true
		}
		return -1, true
	case *cc.AssignExpr:
		if !sameVar(x.L, name) {
			return 0, false
		}
		switch x.Op {
		case cc.PlusAssign:
			return evalConst(x.R)
		case cc.MinusAssign:
			k, ok := evalConst(x.R)
			return -k, ok
		case cc.Assign:
			b, ok := x.R.(*cc.Binary)
			if !ok || !sameVar(b.L, name) {
				return 0, false
			}
			k, okc := evalConst(b.R)
			if !okc {
				return 0, false
			}
			switch b.Op {
			case cc.Plus:
				return k, true
			case cc.Minus:
				return -k, true
			}
		}
	}
	return 0, false
}

// whileBound infers a trip count for a while loop: either the loop is a
// shift-descent (`while (b …) { … b = b >> k; … }` — at most 32/k
// iterations can change a 32-bit value before it sticks at 0 or -1), or
// nothing is known.
func (g *gapAnalyzer) whileBound(st *cc.While) (int64, bool) {
	return shiftDescentBound(st.Cond, st.Body)
}

// shiftDescentBound recognizes loops controlled by a variable that the
// body right-shifts by a constant each iteration.
func shiftDescentBound(cond cc.Expr, body cc.Stmt) (int64, bool) {
	var ctrl []string
	walkExpr(cond, func(sub cc.Expr) {
		if v, ok := sub.(*cc.VarRef); ok {
			ctrl = append(ctrl, v.Name)
		}
	})
	for _, name := range ctrl {
		if k, ok := findShiftStep(body, name); ok && k > 0 {
			return 32/k + 2, true
		}
	}
	return 0, false
}

// findShiftStep looks for `name = name >> k` or `name >>= k` anywhere in
// the loop body.
func findShiftStep(s cc.Stmt, name string) (int64, bool) {
	var step int64
	found := false
	var walkStmt func(cc.Stmt)
	check := func(e cc.Expr) {
		walkExpr(e, func(sub cc.Expr) {
			as, ok := sub.(*cc.AssignExpr)
			if !ok || !sameVar(as.L, name) {
				return
			}
			switch as.Op {
			case cc.ShrAssign:
				if k, okc := evalConst(as.R); okc {
					step, found = k, true
				}
			case cc.Assign:
				if b, okb := as.R.(*cc.Binary); okb && b.Op == cc.Shr && sameVar(b.L, name) {
					if k, okc := evalConst(b.R); okc {
						step, found = k, true
					}
				}
			}
		})
	}
	walkStmt = func(s cc.Stmt) {
		switch st := s.(type) {
		case *cc.Block:
			for _, sub := range st.Stmts {
				walkStmt(sub)
			}
		case *cc.ExprStmt:
			check(st.X)
		case *cc.If:
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *cc.While:
			walkStmt(st.Body)
		case *cc.DoWhile:
			walkStmt(st.Body)
		case *cc.For:
			walkStmt(st.Body)
		case *cc.Switch:
			for gi := range st.Groups {
				for _, sub := range st.Groups[gi].Stmts {
					walkStmt(sub)
				}
			}
		}
	}
	walkStmt(s)
	return step, found
}
