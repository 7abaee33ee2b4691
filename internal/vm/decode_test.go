package vm_test

import (
	"fmt"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/replay"
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

// TestDecodedRuns: every slot of the decoded table records the
// straight-line run a forward walk finds from it — the instructions of
// the ALU and memory classes other than logged stores, up to the first
// other one, capped at 255 — with its ClassMem count. The slot stays 20
// bytes. A program whose run exceeds the cap also runs as it
// single-steps, under power that cuts it every few dozen instructions.
func TestDecodedRuns(t *testing.T) {
	if vm.DecodedInstrSize != 20 {
		t.Fatalf("decoded slot is %d bytes, want 20", vm.DecodedInstrSize)
	}
	long := "int g; int h; int main() {\n" + strings.Repeat("    g = g + h * 3;\n", 120) + "    return g;\n}\n"
	longImg := build(t, long)
	images := map[string]*link.Image{"long": longImg}
	for _, app := range apps.All() {
		for _, rt := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS, tics.RTMementos} {
			img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: rt})
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, rt, err)
			}
			images[app.Name+"/"+string(rt)] = img.Image
		}
	}
	capped := false
	for name, img := range images {
		m, err := vm.New(vm.Config{Image: img})
		if err != nil {
			t.Fatal(err)
		}
		instrs, offs, err := isa.DecodeAll(img.Text)
		if err != nil {
			t.Fatal(err)
		}
		for j := range instrs {
			n, mems := 0, 0
			for k := j; k < len(instrs) && n < 255 && inRun(instrs[k].Op); k++ {
				n++
				if isa.Lookup(instrs[k].Op).Class == isa.ClassMem {
					mems++
				}
			}
			capped = capped || n == 255
			pc := img.TextBase + uint32(offs[j])
			if gotN, gotMems := m.RunAt(pc); gotN != n || gotMems != mems {
				t.Fatalf("%s: run at %#x (%v) is (%d, %d mem), want (%d, %d mem)", name, pc, instrs[j], gotN, gotMems, n, mems)
			}
		}
	}
	if !capped {
		t.Fatal("no run reached the 255-instruction cap")
	}
	twoWays(t, "long run", func() snapRun {
		r := snapRun{rec: obs.NewRecorder(snapRecOpts), cap: &capture{}}
		r.rec.AddSink(r.cap)
		src, err := replay.ParsePower("fail:97", 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.m, err = vm.New(vm.Config{Image: longImg, Power: src, Recorder: r.rec, MaxCycles: 200_000}); err != nil {
			t.Fatal(err)
		}
		return r
	}, nil)
}

// inRun is the reference for which instructions a straight-line run
// holds: the ALU and memory classes, logged stores excepted.
func inRun(op isa.Op) bool {
	switch op {
	case isa.StoreGL, isa.StoreGBL, isa.StoreIL, isa.StoreIBL:
		return false
	}
	c := isa.Lookup(op).Class
	return c == isa.ClassALU || c == isa.ClassMem
}
