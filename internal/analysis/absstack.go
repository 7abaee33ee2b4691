package analysis

import (
	"slices"

	"repro/internal/cc"
	"repro/internal/isa"
)

// This file recovers memory events (non-volatile reads and writes with
// their target intervals) and data provenance (which globals each sent or
// stored value was computed from) from compiled bytecode by abstract
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
	i := prog.GlobalAt(v.lo)
	if i < 0 {
		return unknown()
	}
	g := prog.Globals[i]
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
		if g := prog.GlobalAt(lo); g >= 0 && g == prog.GlobalAt(hi) {
			return aval{kind: avGlobal, lo: lo, hi: hi, wide: true}
		}
	}
	return unknown()
}

// src is the data provenance of an operand-stack value: the globals it
// was computed from (indices into prog.Globals, first appearance first)
// by the expression in instructions [start, end]. A leaf (constant,
// local, sensor, clock, return value, global load) starts an expression;
// unary and binary ALU ops and Dup extend one only when their operands
// are contiguous: each operand ends just before the instruction that
// consumes it or the operand that follows it. Any other value (an
// indirect load, a pop past the block's empty entry stack) is
// unresolved. Since a jump target starts a block, a jump can never
// splice a foreign operand into a resolved expression.
type src struct {
	ok         bool
	start, end int
	globals    []int
}

// leaf is the provenance of a value instruction i produces from nothing
// on the stack; g is its global's index, or -1 for a fresh value.
func leaf(i, g int) src {
	s := src{ok: true, start: i, end: i}
	if g >= 0 {
		s.globals = []int{g}
	}
	return s
}

// extend is the provenance of the value instruction i computes from its
// operands (one, or lhs then rhs); it is resolved only if they are.
func extend(i int, ops ...src) src {
	out := src{ok: true, start: i, end: i}
	for k := len(ops) - 1; k >= 0; k-- {
		if !ops[k].ok || ops[k].end != out.start-1 {
			return src{}
		}
		out.start = ops[k].start
	}
	for _, op := range ops {
		for _, g := range op.globals {
			if !slices.Contains(out.globals, g) {
				out.globals = append(out.globals, g)
			}
		}
	}
	return out
}

// DataSite is a Send or a direct store into a global, with the provenance
// of the value it sends or stores.
type DataSite struct {
	Func     int    // index into prog.Funcs
	Off      uint32 // byte offset of the instruction in the function's code
	Send     bool   // a Send; otherwise a direct global store
	Resolved bool   // the value is one contiguous expression of known leaves
	Sources  []int  // indices into prog.Globals, first appearance first
}

// DataProvenance interprets every function of prog and returns its Send
// and direct global-store sites in code order. prog may be instrumented.
func DataProvenance(prog *cc.Program) []DataSite {
	var sites []DataSite
	for _, fn := range prog.Funcs {
		sites = append(sites, extractEvents(prog, fn, BuildCFG(fn), nil, nil).sites...)
	}
	return sites
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

// funcEvents holds the per-block event streams of one function, and its
// data sites.
type funcEvents struct {
	cfg    *CFG
	blocks [][]memEvent
	sites  []DataSite
}

// slot is one abstract operand-stack entry.
type slot struct {
	v aval
	p src
}

// extractEvents abstractly interprets every block of fn (operand stack
// only, starting empty at each block boundary — pops beyond that yield
// unknown) and emits the block's memory events and data sites. paramVals,
// when non-nil, supplies abstract values for fn's parameters (monomorphic
// call-site propagation). argsAt, when non-nil, receives the abstract
// argument values observed at each Call instruction.
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
	var off uint32 // blocks tile the code in order
	for _, b := range cfg.Blocks {
		var stack []slot
		pop := func() slot {
			if len(stack) == 0 {
				return slot{v: unknown()}
			}
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return v
		}
		push := func(v aval, p src) { stack = append(stack, slot{v, p}) }
		emit := func(e memEvent) { fe.blocks[b.ID] = append(fe.blocks[b.ID], e) }

		for i := b.Start; i < b.End; i++ {
			in := fn.Code[i]
			at := off
			off += uint32(in.Size())
			site := func(send bool, p src) {
				p = extend(i, p)
				fe.sites = append(fe.sites, DataSite{Func: fn.Index, Off: at, Send: send,
					Resolved: p.ok, Sources: p.globals})
			}
			op := isa.Unlogged(in.Op) // accept instrumented code too
			switch op {
			case isa.PushI:
				v := constVal(in.Imm)
				if globalReloc[i] {
					v = aval{kind: avGlobal, lo: uint32(in.Imm), hi: uint32(in.Imm)}
				}
				push(v, leaf(i, -1))
			case isa.Dup:
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					push(top.v, extend(i, top.p))
				} else {
					push(unknown(), src{})
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
				g := -1
				if globalReloc[i] {
					emit(memEvent{kind: evRead, instr: i,
						loc: Loc{uint32(in.Imm), uint32(in.Imm) + size}})
					g = prog.GlobalAt(uint32(in.Imm))
				}
				push(unknown(), leaf(i, g))
			case isa.StoreG, isa.StoreGB:
				size := uint32(4)
				if op == isa.StoreGB {
					size = 1
				}
				v := pop()
				if globalReloc[i] {
					emit(memEvent{kind: evWrite, instr: i,
						loc: Loc{uint32(in.Imm), uint32(in.Imm) + size}})
					if prog.GlobalAt(uint32(in.Imm)) >= 0 {
						site(false, v.p)
					}
				}
			case isa.LoadL:
				v := unknown()
				if paramVals != nil && in.Imm >= 8 && (in.Imm-8)%4 == 0 {
					if j := int(in.Imm-8) / 4; j < len(paramVals) {
						v = paramVals[j]
					}
				}
				push(v, leaf(i, -1))
			case isa.StoreL:
				pop()
			case isa.AddrL:
				push(aval{kind: avStack}, leaf(i, -1))
			case isa.LoadI, isa.LoadIB:
				size := uint32(4)
				if op == isa.LoadIB {
					size = 1
				}
				a := pop().v
				if a.kind == avGlobal {
					emit(memEvent{kind: evRead, instr: i, wide: a.wide,
						loc: Loc{a.lo, a.hi + size}})
				}
				push(unknown(), src{})
			case isa.StoreI, isa.StoreIB:
				size := uint32(4)
				if op == isa.StoreIB {
					size = 1
				}
				pop() // value
				a := pop().v
				if a.kind == avGlobal {
					emit(memEvent{kind: evWrite, instr: i, wide: a.wide,
						loc: Loc{a.lo, a.hi + size}})
				}
			case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
				isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
				isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
				rhs := pop()
				lhs := pop()
				push(binaryVal(prog, op, lhs.v, rhs.v), extend(i, lhs.p, rhs.p))
			case isa.Neg, isa.Not, isa.LNot:
				x := pop()
				v := unknown()
				if x.v.kind == avConst {
					r, _ := isa.Eval(op, uint32(x.v.c), 0)
					v = constVal(int32(r))
				}
				push(v, extend(i, x.p))
			case isa.Send:
				site(true, pop().p)
			case isa.Jz, isa.Jnz, isa.Timely, isa.SetRV, isa.SetTS, isa.Out:
				pop()
			case isa.ExpBegin, isa.ExpCatch:
				pop()
				pop()
			case isa.GetRV, isa.Sense, isa.Now:
				push(unknown(), leaf(i, -1))
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
									args[j] = stack[idx].v
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

// binaryVal is the abstract address value of binary ALU op applied to
// lhs a and rhs b.
func binaryVal(prog *cc.Program, op isa.Op, a, b aval) aval {
	if a.kind == avConst && b.kind == avConst {
		if v, ok := isa.Eval(op, uint32(a.c), uint32(b.c)); ok {
			return constVal(int32(v))
		}
	}
	switch {
	case op == isa.Add:
		return addVals(prog, a, b)
	case op == isa.Sub:
		return subVals(prog, a, b)
	case a.kind == avStack || b.kind == avStack:
		return aval{kind: avStack}
	}
	return unknown()
}
