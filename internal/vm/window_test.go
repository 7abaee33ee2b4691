package vm_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/cc"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/replay"
	"repro/internal/vm"
)

// addLoop is the reference addEach: k rounded adds, one at a time.
func addLoop(x, d float64, k int) float64 {
	for range k {
		x += d
	}
	return x
}

// sameAdds requires AddEach(x, d, k) to equal the add loop bit for bit.
func sameAdds(t *testing.T, x, d float64, k int) {
	t.Helper()
	got, want := vm.AddEach(x, d, k), addLoop(x, d, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AddEach(%v [%#x], %v, %d) = %v [%#x], the add loop gives %v [%#x]",
			x, math.Float64bits(x), d, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAddEachMatchesLoop holds the closed-form adds to the add loop over
// every copy price (and every other charge) in ms, for starting values
// at zero, subnormal, just below and at powers of two, inside the binade
// [2⁻⁷, 2⁻⁶) where adding 0.001 ties, and so large that an add moves
// nothing, and for k up to 10⁴.
func TestAddEachMatchesLoop(t *testing.T) {
	ds := []float64{0.001}
	for passes := int64(1); passes <= 2; passes++ {
		ds = append(ds, float64(passes*(energy.NVReadPerWord+energy.NVWritePerWord))/energy.CyclesPerMs)
	}
	c := energy.Default()
	for _, cy := range []int64{c.Instr, c.InstrMem, c.InstrCtl, c.TrapBase, c.NVWritePerWord, c.NVReadPerWord,
		c.CheckpointBase, c.RestoreBase, c.UndoRollback, c.TimeRead, c.SendExtra} {
		ds = append(ds, float64(cy)/energy.CyclesPerMs)
	}
	xs := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, math.Nextafter(0x1p-1022, 0), 1234.5678, 88.9, 1e300, 0x1p60,
		math.MaxFloat64}
	for e := -12; e <= 24; e++ {
		p := math.Ldexp(1, e)
		xs = append(xs, p, math.Nextafter(p, 0), p-3*math.Ldexp(1, e-53))
	}
	// The tie binade: x/u odd and even, where u = 2⁻⁵⁹ is its ulp.
	for _, i := range []float64{0, 1, 2, 3, 12345, 12346, 1 << 40, 1<<52 - 1, 1<<52 - 7} {
		xs = append(xs, 0x1p-7+i*0x1p-59)
	}
	ks := []int{0, 1, 2, 3, 4, 5, 7, 73, 146, 1000, 4097, 9999, 10_000}
	for _, d := range ds {
		for _, x := range xs {
			for _, k := range ks {
				sameAdds(t, x, d, k)
			}
		}
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for range 20_000 {
		x := math.Ldexp(rng.Float64(), rng.IntN(60)-30)
		sameAdds(t, x, ds[rng.IntN(len(ds))], rng.IntN(10_001))
	}
}

// FuzzAddEach holds AddEach to the add loop for any finite x ≥ 0, a
// price in ms or any finite d ≥ 0, and k up to 10⁴.
func FuzzAddEach(f *testing.F) {
	f.Add(uint64(0), uint16(5), false, uint16(73))
	f.Add(math.Float64bits(0x1p-7), uint16(1), false, uint16(10_000))
	f.Add(math.Float64bits(1e300), uint16(10), false, uint16(9999))
	f.Add(math.Float64bits(0.999), uint16(10), true, uint16(500))
	f.Fuzz(func(t *testing.T, xb uint64, c uint16, raw bool, k uint16) {
		x := math.Abs(math.Float64frombits(xb))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		d := float64(c) / energy.CyclesPerMs
		if raw {
			// Any finite d ≥ 0: reuse x's bits shifted, a value unrelated
			// to the grid of x.
			d = math.Abs(math.Float64frombits(xb>>7 | uint64(c)<<52))
			if math.IsNaN(d) || math.IsInf(d, 0) || math.IsInf(x+float64(k)*d, 0) {
				return
			}
		}
		sameAdds(t, x, d, int(k%10_001))
	})
}

// stackEffectRef is the reference stack effect of a straight-line
// instruction: the words it pops, then the words it pushes.
func stackEffectRef(op isa.Op) (pops, pushes int) {
	switch op {
	case isa.Nop, isa.AddSP:
		return 0, 0
	case isa.PushI, isa.LoadG, isa.LoadGB, isa.LoadL, isa.AddrL, isa.GetRV:
		return 0, 1
	case isa.Drop, isa.SetRV, isa.StoreG, isa.StoreGB, isa.StoreL:
		return 1, 0
	case isa.StoreI, isa.StoreIB:
		return 2, 0
	case isa.Dup:
		return 1, 2
	case isa.Swap:
		return 2, 2
	case isa.LoadI, isa.LoadIB, isa.Neg, isa.Not, isa.LNot:
		return 1, 1
	}
	return 2, 1 // the two-operand ALU and compare ops
}

// windowRef walks the n instructions from j word by word and returns the
// stack bytes they touch relative to the first one's SP (0, 0 when none,
// or when they span more than a page) and the words read and written.
func windowRef(instrs []isa.Instr, j, n int) (lo, hi, reads, writes int) {
	sp := 0
	touched := map[int]bool{}
	for _, in := range instrs[j : j+n] {
		pops, pushes := stackEffectRef(in.Op)
		for range pops {
			touched[sp] = true
			sp += 4
		}
		for range pushes {
			sp -= 4
			touched[sp] = true
		}
		if in.Op == isa.AddSP {
			sp += int(in.Imm)
		}
		reads, writes = reads+pops, writes+pushes
	}
	if len(touched) == 0 {
		return 0, 0, reads, writes
	}
	lo, hi = math.MaxInt, math.MinInt
	for off := range touched {
		lo, hi = min(lo, off), max(hi, off+4)
	}
	if hi-lo > mem.PageSize {
		return 0, 0, reads, writes
	}
	return lo, hi, reads, writes
}

// asm lays prog out as a plain-runtime image: text from 0x110, 64 bytes
// of globals after it, and the stack at [stackBase, stackBase+stackLen).
// A Jmp whose immediate is -1 jumps to the next instruction, ending the
// straight-line run before it; an immediate of globalG is the address of
// the first global.
func asm(t *testing.T, prog []isa.Instr, stackBase, stackLen uint32) *link.Image {
	t.Helper()
	const textBase = 0x110
	prog = slices.Clone(prog)
	pc := uint32(textBase)
	for i, in := range prog {
		pc += uint32(in.Size())
		if in.Op == isa.Jmp && in.Imm == -1 {
			prog[i].Imm = int32(pc)
		}
	}
	globals := (pc + 3) &^ 3
	if globals+64 > stackBase {
		t.Fatalf("text ends at %#x, past the stack at %#x", pc, stackBase)
	}
	for i, in := range prog {
		if in.Imm == globalG {
			prog[i].Imm = int32(globals)
		}
	}
	return &link.Image{
		Program:     &cc.Program{},
		Spec:        link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: int(stackLen)},
		Text:        isa.EncodeAll(prog),
		TextBase:    textBase,
		EntryPC:     textBase,
		GlobalsBase: globals,
		BSSBase:     globals,
		RuntimeBase: 0x100,
		RuntimeLen:  16,
		StackBase:   stackBase,
		StackLen:    stackLen,
		Symbols:     map[string]uint32{"g": globals},
	}
}

// imageSpecs lists the builds of app for every runtime, at -O2 and -O0.
func imageSpecs(app string) []replay.Spec {
	var specs []replay.Spec
	for _, rt := range tics.Runtimes() {
		for _, o0 := range []bool{false, true} {
			specs = append(specs, replay.Spec{App: app, Runtime: string(rt), O0: o0})
		}
	}
	return specs
}

// globalG stands for the first global's address in asm's input.
const globalG = -0x7777

// windowOutcome is what a run of a hand-assembled image leaves.
type windowOutcome struct {
	res     vm.Result
	regs    vm.Registers
	mem     []byte
	private int
}

// sameAsSingleStep runs img to its end twice, with straight-line runs
// and single-stepped, on a flat memory or one forked from a Prepared
// image, with setup applied to each machine before it runs, and requires
// the same Result (memory statistics and floats included), registers,
// memory and private pages. It returns the outcome.
func sameAsSingleStep(t *testing.T, what string, img *link.Image, forked bool, setup func(*vm.Machine)) windowOutcome {
	t.Helper()
	var out [2]windowOutcome
	for i, single := range []bool{false, true} {
		cfg := vm.Config{Image: img, MaxCycles: 1_000_000}
		if forked {
			prep, err := vm.Prepare(img)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Prepared = prep
		}
		m, err := vm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if single {
			m.SetSingleStep()
		}
		if setup != nil {
			setup(m)
		}
		res, _ := m.Run()
		out[i] = windowOutcome{res, m.Regs, m.Mem.Snapshot(), m.Mem.PrivatePages()}
	}
	got, want := out[0], out[1]
	sameBits(t, what, got.res, want.res)
	if got.regs != want.regs || got.private != want.private || !slices.Equal(got.mem, want.mem) {
		t.Fatalf("%s: registers %+v, %d private pages; single-stepped %+v, %d (memory equal: %v)",
			what, got.regs, got.private, want.regs, want.private, slices.Equal(got.mem, want.mem))
	}
	return got
}

// ins is a shorthand for an instruction.
func ins(op isa.Op, imm ...int32) isa.Instr {
	in := isa.Instr{Op: op}
	if len(imm) > 0 {
		in.Imm = imm[0]
	}
	return in
}

// TestStackWindows: every slot of the window table records the stack
// bytes and words a forward walk of its run touches, over every shipped
// image; and runs made on a stack window — faulting or expiring part-way,
// storing through computed addresses into their own window, straddling a
// page, or over a page still shared with the image — leave the Result,
// memory statistics, registers and memory single-stepping leaves.
func TestStackWindows(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		windowed := 0
		for _, app := range apps.Every() {
			for _, spec := range imageSpecs(app.Name) {
				img, _, err := replay.BuildImage(spec)
				if err != nil {
					continue // no task port, or a runtime the program cannot build for
				}
				rt := fmt.Sprintf("%s O0=%v", spec.Runtime, spec.O0)
				m, err := vm.New(vm.Config{Image: img.Image})
				if err != nil {
					t.Fatal(err)
				}
				instrs, offs, err := isa.DecodeAll(img.Text)
				if err != nil {
					t.Fatal(err)
				}
				for j := range instrs {
					pc := img.TextBase + uint32(offs[j])
					n, _ := m.RunAt(pc)
					if n == 0 {
						continue
					}
					lo, hi, r, w := m.WindowAt(pc)
					wlo, whi, wr, ww := windowRef(instrs, j, n)
					if lo != wlo || hi != whi || r != wr || w != ww {
						t.Fatalf("%s/%s: run of %d at %#x (%v): window [%d,%d) reads %d writes %d, want [%d,%d) %d %d",
							app.Name, rt, n, pc, instrs[j], lo, hi, r, w, wlo, whi, wr, ww)
					}
					if n > 1 && lo < hi {
						windowed++
					}
				}
			}
		}
		if windowed == 0 {
			t.Fatal("no run of two or more instructions has a window")
		}
	})

	const stack, stackLen = 0x2000, 0x400 // one page
	top := int32(stack + stackLen)

	faults := []struct {
		name string
		prog []isa.Instr
		want string
	}{
		{"zero divisor", []isa.Instr{ins(isa.PushI, 1), ins(isa.PushI, 2), ins(isa.PushI, 3), ins(isa.Add),
			ins(isa.PushI, 0), ins(isa.Div), ins(isa.PushI, 9), ins(isa.Halt)}, "division by zero"},
		{"zero modulus", []isa.Instr{ins(isa.PushI, 1), ins(isa.Dup), ins(isa.PushI, 0), ins(isa.Mod), ins(isa.Halt)},
			"modulo by zero"},
		{"wild indirect store", []isa.Instr{ins(isa.PushI, 5), ins(isa.PushI, 0), ins(isa.PushI, 7), ins(isa.StoreI),
			ins(isa.Halt)}, "wild store"},
		{"wild byte store", []isa.Instr{ins(isa.PushI, 5), ins(isa.PushI, 4), ins(isa.PushI, 7), ins(isa.Swap),
			ins(isa.StoreIB), ins(isa.Halt)}, "wild store"},
		{"wild global store", []isa.Instr{ins(isa.PushI, 3), ins(isa.PushI, 4), ins(isa.StoreG, 0x10), ins(isa.Halt)},
			"wild store"},
		{"load past the address space", []isa.Instr{ins(isa.PushI, 3), ins(isa.PushI, -2), ins(isa.LoadI),
			ins(isa.Halt)}, "out of range"},
		{"local load past the address space", []isa.Instr{ins(isa.PushI, 3), ins(isa.Drop), ins(isa.LoadL, 0x7fff0000),
			ins(isa.Halt)}, "out of range"},
	}
	for _, tc := range faults {
		for _, forked := range []bool{false, true} {
			what := fmt.Sprintf("%s forked=%v", tc.name, forked)
			// A first run materializes the stack page, so the faulting run
			// works on a private one even on a forked memory.
			prog := append([]isa.Instr{ins(isa.PushI, 1), ins(isa.Drop), ins(isa.Jmp, -1)}, tc.prog...)
			out := sameAsSingleStep(t, what, asm(t, prog, stack, stackLen), forked, nil)
			if out.res.Fault == nil || !strings.Contains(out.res.Fault.Error(), tc.want) {
				t.Fatalf("%s: fault %v, want %q", what, out.res.Fault, tc.want)
			}
		}
	}

	// Computed stores and loads into the run's own window: StoreI over a
	// live slot that SetRV then pops (RV = 42), StoreL below SP that LoadL
	// reads back (9), then AddrL pushes the address top-8 onto that very
	// slot and LoadI reads it back through the address: RV = 42×(9+top-8).
	// Then the byte loads and stores, through a global.
	alias := []isa.Instr{
		ins(isa.PushI, 0), ins(isa.PushI, top-4), ins(isa.PushI, 42), ins(isa.StoreI), ins(isa.SetRV),
		ins(isa.PushI, 9), ins(isa.StoreL, -8), ins(isa.LoadL, -8), ins(isa.AddrL, -8), ins(isa.LoadI),
		ins(isa.Add), ins(isa.PushI, 0), ins(isa.AddSP, 4), ins(isa.GetRV), ins(isa.Mul), ins(isa.SetRV),
		ins(isa.PushI, 0x1234), ins(isa.StoreGB, globalG), ins(isa.LoadGB, globalG), ins(isa.PushI, globalG),
		ins(isa.PushI, 0x56), ins(isa.StoreIB), ins(isa.PushI, globalG), ins(isa.LoadIB), ins(isa.Add),
		ins(isa.StoreG, globalG), ins(isa.Halt),
	}
	for _, forked := range []bool{false, true} {
		out := sameAsSingleStep(t, fmt.Sprintf("aliasing forked=%v", forked), asm(t, alias, stack, stackLen), forked, nil)
		if want := uint32(42 * (top + 1)); out.regs.RV != want {
			t.Fatalf("aliasing forked=%v: RV %d, want %d", forked, out.regs.RV, want)
		}
	}

	// An expiry that fires inside a run: blocks of stack work between
	// jumps, about 400 cycles a run, with a deadline at 2 ms.
	var long []isa.Instr
	for range 10 {
		for range 25 {
			long = append(long, ins(isa.LoadG, globalG), ins(isa.PushI, 3), ins(isa.Add), ins(isa.Dup), ins(isa.StoreG, globalG),
				ins(isa.PushI, 5), ins(isa.Swap), ins(isa.Sub), ins(isa.Neg), ins(isa.SetRV))
		}
		long = append(long, ins(isa.Jmp, -1))
	}
	long = append(long, ins(isa.Halt))
	img := asm(t, long, stack, stackLen)
	for _, deadline := range []int64{0, 1, 2, 3} {
		for _, forked := range []bool{false, true} {
			sameAsSingleStep(t, fmt.Sprintf("expiry at %d ms forked=%v", deadline, forked), img, forked, func(m *vm.Machine) {
				m.ExpiryArmed, m.ExpiryDeadline = true, deadline
			})
		}
	}

	// Windows that straddle a page: the stack [0x3bc0, 0x3c40) crosses
	// 0x3c00, and runs push across it, work on either side and pop back.
	var straddle []isa.Instr
	for i := range 24 {
		straddle = append(straddle, ins(isa.PushI, int32(i)))
		if i%5 == 4 {
			straddle = append(straddle, ins(isa.Jmp, -1))
		}
	}
	for range 3 {
		straddle = append(straddle, ins(isa.Add), ins(isa.Dup), ins(isa.Mul), ins(isa.Swap), ins(isa.Jmp, -1))
	}
	for range 10 {
		straddle = append(straddle, ins(isa.Add), ins(isa.SetRV), ins(isa.GetRV), ins(isa.Jmp, -1))
	}
	straddle = append(straddle, ins(isa.SetRV), ins(isa.Halt))
	for _, forked := range []bool{false, true} {
		sameAsSingleStep(t, fmt.Sprintf("straddling forked=%v", forked), asm(t, straddle, 0x3bc0, 0x80), forked, nil)
	}

	// A run that only reads the stack, over a page shared with the base:
	// after three pushes, a boundary hook makes every page shared again,
	// and the run StoreI, SetRV then stores 77 into the very slot SetRV
	// pops. The store materializes the page, so a window kept on the
	// shared page would hand SetRV the stale 0.
	stale := []isa.Instr{ins(isa.PushI, 0), ins(isa.PushI, top-4), ins(isa.PushI, 77), ins(isa.Jmp, -1),
		ins(isa.StoreI), ins(isa.SetRV), ins(isa.Halt)}
	for _, forked := range []bool{false, true} {
		what := fmt.Sprintf("read-only run over a shared page forked=%v", forked)
		out := sameAsSingleStep(t, what, asm(t, stale, stack, stackLen), forked, func(m *vm.Machine) {
			m.SetBoundaryHook(3*energy.Instr+energy.InstrCtl-1, func(m *vm.Machine) int64 {
				m.Mem.ResetToBase(m.Mem.Freeze())
				return math.MaxInt64
			})
		})
		if out.regs.RV != 77 {
			t.Fatalf("%s: RV %d, want 77", what, out.regs.RV)
		}
	}
}
