package analysis

import (
	"repro/internal/cc"
	"repro/internal/isa"
)

// This file recovers memory events (non-volatile reads and writes with
// their target intervals) from compiled bytecode by abstract
// interpretation of the operand stack. It runs on pre-link code, where a
// global address is a PushI carrying a RelocGlobal relocation.

type avKind uint8

const (
	avUnknown avKind = iota
	avConst          // compile-time constant
	avGlobal         // pointer into the globals space, value in [lo, hi]
	avStack          // pointer into the working stack (AddrL) — never a global
)

// aval is an abstract operand-stack value.
type aval struct {
	kind   avKind
	c      int32
	lo, hi uint32
	// wide marks a global pointer widened to its whole variable because an
	// index was not statically known.
	wide bool
}

func unknown() aval         { return aval{kind: avUnknown} }
func constVal(c int32) aval { return aval{kind: avConst, c: c} }

// widen expands a global pointer to the full extent of the variable
// containing it; a pointer outside every variable degrades to unknown.
func widen(prog *cc.Program, v aval) aval {
	g, ok := prog.GlobalAt(v.lo)
	if !ok {
		return unknown()
	}
	return aval{kind: avGlobal, lo: g.Offset, hi: g.Offset + uint32(g.Size) - 1, wide: true}
}

func addVals(prog *cc.Program, a, b aval) aval {
	switch {
	case a.kind == avGlobal && b.kind == avConst:
		return aval{kind: avGlobal, lo: a.lo + uint32(b.c), hi: a.hi + uint32(b.c), wide: a.wide}
	case b.kind == avGlobal && a.kind == avConst:
		return aval{kind: avGlobal, lo: b.lo + uint32(a.c), hi: b.hi + uint32(a.c), wide: b.wide}
	case a.kind == avGlobal:
		return widen(prog, a)
	case b.kind == avGlobal:
		return widen(prog, b)
	case a.kind == avStack || b.kind == avStack:
		return aval{kind: avStack}
	}
	return unknown()
}

func subVals(prog *cc.Program, a, b aval) aval {
	switch {
	case a.kind == avGlobal && b.kind == avConst:
		return aval{kind: avGlobal, lo: a.lo - uint32(b.c), hi: a.hi - uint32(b.c), wide: a.wide}
	case a.kind == avGlobal:
		return widen(prog, a)
	case a.kind == avStack:
		return aval{kind: avStack}
	}
	return unknown()
}

// joinVals merges the abstract values a parameter receives from two call
// sites (bottom is represented by callers passing ok=false separately).
func joinVals(prog *cc.Program, a, b aval) aval {
	if a == b {
		return a
	}
	if a.kind == avGlobal && b.kind == avGlobal {
		lo, hi := a.lo, a.hi
		if b.lo < lo {
			lo = b.lo
		}
		if b.hi > hi {
			hi = b.hi
		}
		ga, oka := prog.GlobalAt(lo)
		gb, okb := prog.GlobalAt(hi)
		if oka && okb && ga.Name == gb.Name {
			return aval{kind: avGlobal, lo: lo, hi: hi, wide: true}
		}
	}
	return unknown()
}

type evKind uint8

const (
	evRead evKind = iota
	evWrite
	evChkpt
	evCall
)

// memEvent is one analysis-relevant action of an instruction.
type memEvent struct {
	kind   evKind
	instr  int  // instruction index within the function
	loc    Loc  // globals-space interval, valid when known
	wide   bool // interval widened to the whole variable (index unknown)
	callee int  // for evCall
}

// funcEvents holds the per-block event streams of one function.
type funcEvents struct {
	cfg    *CFG
	blocks [][]memEvent
}

// extractEvents abstractly interprets every block of fn (operand stack
// only, starting empty at each block boundary — pops beyond that yield
// unknown) and emits the block's memory events. paramVals, when non-nil,
// supplies abstract values for fn's parameters (monomorphic call-site
// propagation). argsAt, when non-nil, receives the abstract argument
// values observed at each Call instruction.
func extractEvents(prog *cc.Program, fn *cc.Func, cfg *CFG,
	paramVals []aval, argsAt func(instr, callee int, args []aval)) *funcEvents {

	entryReloc := map[int]bool{}
	globalReloc := map[int]bool{}
	for _, r := range fn.Relocs {
		switch r.Kind {
		case cc.RelocFuncEntry:
			entryReloc[r.Instr] = true
		case cc.RelocGlobal:
			globalReloc[r.Instr] = true
		}
	}

	fe := &funcEvents{cfg: cfg, blocks: make([][]memEvent, len(cfg.Blocks))}
	for _, b := range cfg.Blocks {
		var stack []aval
		pop := func() aval {
			if len(stack) == 0 {
				return unknown()
			}
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return v
		}
		push := func(v aval) { stack = append(stack, v) }
		emit := func(e memEvent) { fe.blocks[b.ID] = append(fe.blocks[b.ID], e) }

		for i := b.Start; i < b.End; i++ {
			in := fn.Code[i]
			op := isa.Unlogged(in.Op) // accept instrumented code too
			switch op {
			case isa.PushI:
				if globalReloc[i] {
					push(aval{kind: avGlobal, lo: uint32(in.Imm), hi: uint32(in.Imm)})
				} else {
					push(constVal(in.Imm))
				}
			case isa.Dup:
				if len(stack) > 0 {
					push(stack[len(stack)-1])
				} else {
					push(unknown())
				}
			case isa.Drop:
				pop()
			case isa.Swap:
				if len(stack) >= 2 {
					stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]
				}
			case isa.LoadG, isa.LoadGB:
				size := uint32(4)
				if op == isa.LoadGB {
					size = 1
				}
				if globalReloc[i] {
					emit(memEvent{kind: evRead, instr: i,
						loc: Loc{uint32(in.Imm), uint32(in.Imm) + size}})
				}
				push(unknown())
			case isa.StoreG, isa.StoreGB:
				size := uint32(4)
				if op == isa.StoreGB {
					size = 1
				}
				pop()
				if globalReloc[i] {
					emit(memEvent{kind: evWrite, instr: i,
						loc: Loc{uint32(in.Imm), uint32(in.Imm) + size}})
				}
			case isa.LoadL:
				v := unknown()
				if paramVals != nil && in.Imm >= 8 && (in.Imm-8)%4 == 0 {
					if j := int(in.Imm-8) / 4; j < len(paramVals) {
						v = paramVals[j]
					}
				}
				push(v)
			case isa.StoreL:
				pop()
			case isa.AddrL:
				push(aval{kind: avStack})
			case isa.LoadI, isa.LoadIB:
				size := uint32(4)
				if op == isa.LoadIB {
					size = 1
				}
				a := pop()
				if a.kind == avGlobal {
					emit(memEvent{kind: evRead, instr: i, wide: a.wide,
						loc: Loc{a.lo, a.hi + size}})
				}
				push(unknown())
			case isa.StoreI, isa.StoreIB:
				size := uint32(4)
				if op == isa.StoreIB {
					size = 1
				}
				pop() // value
				a := pop()
				if a.kind == avGlobal {
					emit(memEvent{kind: evWrite, instr: i, wide: a.wide,
						loc: Loc{a.lo, a.hi + size}})
				}
			case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
				isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
				isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
				b2 := pop()
				a2 := pop()
				if a2.kind == avConst && b2.kind == avConst {
					if v, ok := isa.Eval(op, uint32(a2.c), uint32(b2.c)); ok {
						push(constVal(int32(v)))
						continue
					}
				}
				switch {
				case op == isa.Add:
					push(addVals(prog, a2, b2))
				case op == isa.Sub:
					push(subVals(prog, a2, b2))
				case a2.kind == avStack || b2.kind == avStack:
					push(aval{kind: avStack})
				default:
					push(unknown())
				}
			case isa.Neg, isa.Not, isa.LNot:
				if v := pop(); v.kind == avConst {
					r, _ := isa.Eval(op, uint32(v.c), 0)
					push(constVal(int32(r)))
				} else {
					push(unknown())
				}
			case isa.Jz, isa.Jnz, isa.Timely, isa.SetRV, isa.Send, isa.SetTS:
				pop()
			case isa.Out:
				pop()
			case isa.ExpBegin, isa.ExpCatch:
				pop()
				pop()
			case isa.GetRV, isa.Sense, isa.Now:
				push(unknown())
			case isa.AddSP:
				for n := in.Imm / 4; n > 0; n-- {
					pop()
				}
			case isa.Call:
				if entryReloc[i] {
					callee := int(in.Imm)
					if callee >= 0 && callee < len(prog.Funcs) {
						if argsAt != nil {
							nargs := prog.Funcs[callee].NArgs
							args := make([]aval, nargs)
							for j := 0; j < nargs; j++ {
								// Arguments are pushed right-to-left: arg j is
								// j slots below the top.
								if idx := len(stack) - 1 - j; idx >= 0 {
									args[j] = stack[idx]
								} else {
									args[j] = unknown()
								}
							}
							argsAt(i, callee, args)
						}
						emit(memEvent{kind: evCall, instr: i, callee: callee})
					}
				}
			case isa.Chkpt:
				emit(memEvent{kind: evChkpt, instr: i})
			}
			// Jmp, Enter, Leave, Halt, Nop, Mark, CpDis, CpEn, ExpEnd,
			// TransTo: no operand-stack or event effect we track.
		}
	}
	return fe
}
