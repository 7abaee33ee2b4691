package audit

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/link"
)

// globalSpan maps an absolute data-address range onto a program global.
type globalSpan struct {
	base      uint32
	size      int
	name      string
	expiresMs int64 // -1 when not @expires_after-annotated
}

// srcSet is the resolved provenance of one stored/sent value: the globals
// it was computed from, as indices into provenance.spans. known=false means the backward
// walk met an instruction it cannot invert (indirect load, call result,
// ...) and the checker must not draw conclusions from this site; the
// zero srcSet, which every PC without a site holds, is such a site.
type srcSet struct {
	known   bool
	globals []int
}

// provenance is the static data-provenance index for one image. For every
// Send instruction and every direct global store it records which globals
// the value on the stack was computed from, by inverting the stack effect
// of the producing expression (leaves: LoadG/LoadGB name a global;
// PushI/Sense/Now/LoadL/AddrL/GetRV produce a fresh value; ALU ops union
// their operands). The walk is linear within the emitted instruction
// order; any jump target that could enter the expression mid-stream
// demotes the site to unknown, so the index never over-claims.
//
// A global is identified by its index in spans (global names are
// unique), resolved once here. sends and stores are dense tables indexed
// by pc - textBase, like the interpreter's decode table, so the per-store
// and per-send hooks do no map or string work.
type provenance struct {
	spans    []globalSpan // sorted by base
	textBase uint32
	sends    []srcSet // Send PC -> payload sources
	stores   []srcSet // direct global-store PC -> value sources
}

func buildProvenance(img *link.Image) (*provenance, error) {
	p := &provenance{
		textBase: img.TextBase,
		sends:    make([]srcSet, len(img.Text)),
		stores:   make([]srcSet, len(img.Text)),
	}
	for _, g := range img.Program.Globals {
		p.spans = append(p.spans, globalSpan{
			base:      img.GlobalsBase + g.Offset,
			size:      g.Size,
			name:      g.Name,
			expiresMs: g.ExpiresAfterMs,
		})
	}
	sort.Slice(p.spans, func(i, j int) bool { return p.spans[i].base < p.spans[j].base })

	var instrs []isa.Instr
	var addrs []uint32
	for off := 0; off < len(img.Text); {
		in, next, err := isa.Decode(img.Text, off)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
		addrs = append(addrs, img.TextBase+uint32(off))
		off = next
	}
	targets := map[uint32]bool{}
	for _, in := range instrs {
		switch in.Op {
		case isa.Jmp, isa.Jz, isa.Jnz, isa.Call, isa.ExpBegin, isa.ExpCatch, isa.Timely:
			targets[uint32(in.Imm)] = true
		}
	}
	for _, f := range img.Funcs {
		targets[f.Entry] = true
	}

	for i, in := range instrs {
		switch in.Op {
		case isa.Send:
			srcs, _, ok := p.valueAt(instrs, addrs, targets, i-1)
			p.sends[addrs[i]-p.textBase] = srcSet{known: ok, globals: srcs}
		case isa.StoreG, isa.StoreGL, isa.StoreGB, isa.StoreGBL:
			if p.globalAt(uint32(in.Imm)) < 0 {
				continue
			}
			srcs, _, ok := p.valueAt(instrs, addrs, targets, i-1)
			p.stores[addrs[i]-p.textBase] = srcSet{known: ok, globals: srcs}
		}
	}
	return p, nil
}

// globalAt resolves an absolute address to the index of the global whose
// data range covers it (-1 for runtime state, shadow timestamp slots,
// the stack).
func (p *provenance) globalAt(addr uint32) int {
	i := sort.Search(len(p.spans), func(i int) bool {
		return p.spans[i].base+uint32(p.spans[i].size) > addr
	})
	if i < len(p.spans) && addr >= p.spans[i].base {
		return i
	}
	return -1
}

// at returns the provenance table records for pc; a pc outside the text
// reads as an unknown site.
func (p *provenance) at(table []srcSet, pc uint32) srcSet {
	if off := pc - p.textBase; off < uint32(len(table)) {
		return table[off]
	}
	return srcSet{}
}

// valueAt resolves the provenance of the value left on top of the operand
// stack by instruction j, returning the source globals, the index of the
// first instruction of the producing expression, and whether the
// resolution is sound.
func (p *provenance) valueAt(instrs []isa.Instr, addrs []uint32, targets map[uint32]bool, j int) ([]int, int, bool) {
	if j < 0 {
		return nil, 0, false
	}
	in := instrs[j]
	switch in.Op {
	case isa.PushI, isa.Sense, isa.Now, isa.GetRV, isa.LoadL, isa.AddrL:
		// Fresh leaves: constants, peripherals, the clock, locals (treated
		// as freshly produced — a pessimism that can only suppress
		// findings, never invent them).
		return nil, j, true
	case isa.LoadG, isa.LoadGB:
		if g := p.globalAt(uint32(in.Imm)); g >= 0 {
			return []int{g}, j, true
		}
		return nil, j, true
	case isa.Neg, isa.Not, isa.LNot, isa.Dup:
		srcs, start, ok := p.valueAt(instrs, addrs, targets, j-1)
		if !ok || targets[addrs[j]] {
			return nil, 0, false
		}
		return srcs, start, true
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
		isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
		rhs, rhsStart, ok := p.valueAt(instrs, addrs, targets, j-1)
		if !ok {
			return nil, 0, false
		}
		lhs, lhsStart, ok := p.valueAt(instrs, addrs, targets, rhsStart-1)
		if !ok {
			return nil, 0, false
		}
		// A jump into the operator or the start of the rhs subexpression
		// would execute the op against a foreign lhs.
		if targets[addrs[j]] || targets[addrs[rhsStart]] {
			return nil, 0, false
		}
		return union(lhs, rhs), lhsStart, true
	}
	return nil, 0, false
}

func union(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := append([]int{}, a...)
	for _, s := range b {
		found := false
		for _, t := range out {
			if t == s {
				found = true
				break
			}
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}
