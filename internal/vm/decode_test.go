package vm_test

import (
	"fmt"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/vm"
)

// TestDecodedTableBoundaries steps every PC around each shipped image's
// text — one byte below it through one byte past it, plus 0 and
// 0xffffffff — on machines built both privately and from a Prepared
// image. A PC where the linear decoder starts an instruction must
// execute that instruction, charging its class cost; any other PC must
// fault with the boundary message and charge nothing.
func TestDecodedTableBoundaries(t *testing.T) {
	cost := energy.Default()
	classCost := map[isa.Class]int64{
		isa.ClassALU: cost.Instr, isa.ClassMem: cost.InstrMem,
		isa.ClassCtl: cost.InstrCtl, isa.ClassTrap: cost.TrapBase,
	}
	for _, app := range apps.All() {
		for _, rt := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS} {
			img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: rt})
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, rt, err)
			}
			want := linearDecode(t, img.Image)
			prep, err := vm.Prepare(img.Image)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []vm.Config{{Image: img.Image}, {Prepared: prep}} {
				m, err := vm.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				end := img.TextBase + uint32(len(img.Text))
				pcs := []uint32{0, 0xffffffff}
				for pc := img.TextBase - 1; pc <= end; pc++ {
					pcs = append(pcs, pc)
				}
				for _, pc := range pcs {
					label := fmt.Sprintf("%s/%s prepared=%v PC=%#x", app.Name, rt, cfg.Prepared != nil, pc)
					checkStep(t, label, m, pc, want, classCost)
				}
			}
		}
	}
}

type decoded struct {
	in   isa.Instr
	next uint32
}

// linearDecode is the reference decoder: isa.DecodeAll's walk from the
// first text byte, keyed by address.
func linearDecode(t *testing.T, img *link.Image) map[uint32]decoded {
	t.Helper()
	instrs, offs, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint32]decoded{}
	for i, in := range instrs {
		addr := img.TextBase + uint32(offs[i])
		out[addr] = decoded{in, addr + uint32(in.Size())}
	}
	return out
}

func checkStep(t *testing.T, label string, m *vm.Machine, pc uint32, want map[uint32]decoded, classCost map[isa.Class]int64) {
	t.Helper()
	w, boundary := want[pc]
	in, next, ok := m.InstrAt(pc)
	if ok != boundary || (ok && (in != w.in || next != w.next)) {
		t.Fatalf("%s: table has (%v, %#x, %v), linear decode (%v, %#x, %v)", label, in, next, ok, w.in, w.next, boundary)
	}
	before := m.Cycles()
	fault := m.StepAt(pc)
	boundaryMsg := fmt.Sprintf("PC=%#x is not an instruction boundary", pc)
	if !boundary {
		if fault == nil || fault.Error() != boundaryMsg {
			t.Fatalf("%s: want fault %q, got %v", label, boundaryMsg, fault)
		}
		if m.Cycles() != before {
			t.Fatalf("%s: a non-boundary PC charged %d cycles", label, m.Cycles()-before)
		}
		return
	}
	if fault != nil && fault.Error() == boundaryMsg {
		t.Fatalf("%s: %v faulted as a non-boundary", label, w.in)
	}
	// Traps may add their own charges on top of the class cost; nothing
	// else does on the plain runtime.
	class := isa.Lookup(w.in.Op).Class
	if spent := m.Cycles() - before; spent < classCost[class] || (class != isa.ClassTrap && spent != classCost[class]) {
		t.Fatalf("%s: %v charged %d cycles, class cost is %d", label, w.in, spent, classCost[class])
	}
	if fault == nil && !transfersControl(w.in.Op) && m.Regs.PC != w.next {
		t.Fatalf("%s: %v left PC=%#x, want fall-through to %#x", label, w.in, m.Regs.PC, w.next)
	}
}

// transfersControl reports whether op may leave PC anywhere but at the
// next instruction.
func transfersControl(op isa.Op) bool {
	switch op {
	case isa.ExpBegin, isa.ExpCatch, isa.Timely, isa.TransTo:
		return true
	}
	return isa.Lookup(op).Class == isa.ClassCtl
}
