// BenchmarkOpcodeDispatch prices the VM's per-opcode dispatch on the
// host: hand-assembled loops dominated by one opcode class, run on the
// plain runtime under continuous power, reported as ns per dispatched
// instruction. The results ride in BENCH_fleet.json under "opcodes"
// (merge-by-key, same ledger as the fleet sweep) so `ticsbench
// -compare` gates interpreter-loop regressions alongside fleet
// throughput — the baseline ROADMAP's dispatch-optimization item
// measures against.
package tics_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/vm"
)

// opcodeUnits are the stack-neutral instruction sequences each
// sub-benchmark repeats. A pure single-opcode loop is impossible on a
// stack machine (operands must be produced and consumed), so each unit
// is the smallest balanced sequence spotlighting its opcode; ns/instr
// averages over the whole unit plus the shared loop scaffold.
var opcodeUnits = []struct {
	name string
	unit func(cnt, scratch uint32) []isa.Instr
}{
	{"pushi+drop", func(_, _ uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: 7}, {Op: isa.Drop}}
	}},
	{"add", func(_, _ uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: 1}, {Op: isa.PushI, Imm: 2}, {Op: isa.Add}, {Op: isa.Drop}}
	}},
	{"mul", func(_, _ uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: 3}, {Op: isa.PushI, Imm: 5}, {Op: isa.Mul}, {Op: isa.Drop}}
	}},
	{"cmplt", func(_, _ uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: 3}, {Op: isa.PushI, Imm: 5}, {Op: isa.CmpLt}, {Op: isa.Drop}}
	}},
	{"loadg", func(_, scratch uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.LoadG, Imm: int32(scratch)}, {Op: isa.Drop}}
	}},
	{"storeg", func(_, scratch uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: 9}, {Op: isa.StoreG, Imm: int32(scratch)}}
	}},
	{"storeg.l", func(_, scratch uint32) []isa.Instr {
		// The instrumented store: on the plain runtime (no PreStore hook)
		// this exercises the LoggedStore path with no log behind it —
		// the dispatch overhead of instrumentation itself.
		return []isa.Instr{{Op: isa.PushI, Imm: 9}, {Op: isa.StoreGL, Imm: int32(scratch)}}
	}},
	{"loadi", func(_, scratch uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: int32(scratch)}, {Op: isa.LoadI}, {Op: isa.Drop}}
	}},
	{"storei", func(_, scratch uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.PushI, Imm: int32(scratch)}, {Op: isa.PushI, Imm: 9}, {Op: isa.StoreI}}
	}},
	{"now+drop", func(_, _ uint32) []isa.Instr {
		return []isa.Instr{{Op: isa.Now}, {Op: isa.Drop}}
	}},
}

// buildOpcodeImage hand-assembles a counted loop around unitReps copies
// of the unit:
//
//	pushi iters; storeg cnt
//	loop: UNIT ×unitReps; loadg cnt; pushi 1; sub; dup; storeg cnt; jnz loop
//	halt
//
// and lays it out as a loadable image the way link.Link would — no
// compiler in the loop, so the measurement isolates vm dispatch.
func buildOpcodeImage(mk func(cnt, scratch uint32) []isa.Instr, iters, unitReps int) (*link.Image, int64) {
	const runtimeBase = 0x100
	const runtimeLen = 16
	textBase := uint32(runtimeBase + runtimeLen)

	// Two passes: sizes first (to learn the loop target and globals
	// base), then encode with resolved addresses.
	assemble := func(cnt, scratch uint32) ([]isa.Instr, int64) {
		var prog []isa.Instr
		var instrs int64
		prog = append(prog, isa.Instr{Op: isa.PushI, Imm: int32(iters)}, isa.Instr{Op: isa.StoreG, Imm: int32(cnt)})
		loopOff := textBase
		for _, in := range prog {
			loopOff += uint32(in.Size())
		}
		unit := mk(cnt, scratch)
		for r := 0; r < unitReps; r++ {
			prog = append(prog, unit...)
		}
		prog = append(prog,
			isa.Instr{Op: isa.LoadG, Imm: int32(cnt)},
			isa.Instr{Op: isa.PushI, Imm: 1},
			isa.Instr{Op: isa.Sub},
			isa.Instr{Op: isa.Dup},
			isa.Instr{Op: isa.StoreG, Imm: int32(cnt)},
			isa.Instr{Op: isa.Jnz, Imm: int32(loopOff)},
			isa.Instr{Op: isa.Halt},
		)
		instrs = 2 + int64(iters)*int64(len(unit)*unitReps+6) + 1
		return prog, instrs
	}

	// Pass 1 with placeholder addresses, just for the text length.
	draft, _ := assemble(0, 0)
	textLen := uint32(len(isa.EncodeAll(draft)))
	globalsBase := (textBase + textLen + 3) &^ 3
	cnt, scratch := globalsBase, globalsBase+4
	prog, instrs := assemble(cnt, scratch)

	img := &link.Image{
		Program:     &cc.Program{},
		Spec:        link.RuntimeSpec{Name: "plain", RuntimeBytes: runtimeLen, StackBytes: 256},
		Text:        isa.EncodeAll(prog),
		TextBase:    textBase,
		EntryPC:     textBase,
		GlobalsBase: globalsBase,
		BSSBase:     globalsBase,
		RuntimeBase: runtimeBase,
		RuntimeLen:  runtimeLen,
		StackBase:   globalsBase + 64,
		StackLen:    256,
		Symbols:     map[string]uint32{"cnt": cnt, "scratch": scratch},
	}
	return img, instrs
}

func BenchmarkOpcodeDispatch(b *testing.B) {
	const iters, unitReps = 2_000, 16
	results := map[string]*bench.OpcodeEntry{}
	for _, u := range opcodeUnits {
		b.Run(u.name, func(b *testing.B) {
			img, instrs := buildOpcodeImage(u.unit, iters, unitReps)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := vm.New(vm.Config{Image: img, MaxCycles: 1 << 62})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					b.Fatalf("%v %+v", err, res)
				}
				total += instrs
			}
			nsPerInstr := float64(b.Elapsed().Nanoseconds()) / float64(total)
			b.ReportMetric(nsPerInstr, "ns/instr")
			b.ReportMetric(float64(instrs), "instrs/run")
			results[u.name] = &bench.OpcodeEntry{NsPerInstr: nsPerInstr, Instrs: total}
		})
	}
	if len(results) != len(opcodeUnits) {
		return // sub-benchmark filter excluded some units; don't write a partial table
	}
	err := bench.Update("BENCH_fleet.json", func(f *bench.File) error {
		for name, e := range results {
			f.SetOpcode(name, e)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
