package isa_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// TestEncodeDecodeRoundTrip is a property test over random instructions.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(opRaw byte, imm int32) bool {
		op := isa.Op(int(opRaw) % isa.NumOps)
		in := isa.Instr{Op: op}
		if isa.Lookup(op).HasImm {
			in.Imm = imm
		}
		buf := in.Encode(nil)
		if len(buf) != in.Size() {
			return false
		}
		got, next, err := isa.Decode(buf, 0)
		return err == nil && next == len(buf) && got == in
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := isa.Decode([]byte{255}, 0); err == nil {
		t.Fatal("undefined opcode accepted")
	}
	if _, _, err := isa.Decode([]byte{byte(isa.PushI), 1, 2}, 0); err == nil {
		t.Fatal("truncated immediate accepted")
	}
	if _, _, err := isa.Decode(nil, 0); err == nil {
		t.Fatal("empty decode accepted")
	}
}

func TestLoggedUnloggedInverse(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		logged := isa.Logged(op)
		if logged != op {
			if isa.Unlogged(logged) != op {
				t.Fatalf("Unlogged(Logged(%s)) != %s", op, op)
			}
			if !isa.IsStore(op) || !isa.IsStore(logged) {
				t.Fatalf("%s should be a store", op)
			}
		}
	}
	if isa.Logged(isa.Add) != isa.Add {
		t.Fatal("Logged changed a non-store")
	}
}

func TestEncodeDecodeAll(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.PushI, Imm: -42},
		{Op: isa.Dup},
		{Op: isa.Add},
		{Op: isa.Jz, Imm: 0x1234},
		{Op: isa.Halt},
	}
	buf := isa.EncodeAll(prog)
	got, offs, err := isa.DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prog) || offs[0] != 0 {
		t.Fatalf("decode all: %v %v", got, offs)
	}
	for i := range prog {
		if got[i] != prog[i] {
			t.Fatalf("instr %d: %v != %v", i, got[i], prog[i])
		}
	}
}

func TestDisassembleLabels(t *testing.T) {
	buf := isa.EncodeAll([]isa.Instr{{Op: isa.Nop}, {Op: isa.Halt}})
	out, err := isa.Disassemble(buf, 0x1000, map[uint32]string{0x1001: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "f:") || !strings.Contains(out, "nop") || !strings.Contains(out, "halt") {
		t.Fatalf("disassembly:\n%s", out)
	}
}

// TestEvalTable checks isa.Eval against hand-computed results at the
// edges of the 32-bit word: wraparound, signed versus unsigned order,
// MinInt32 / -1, shift counts at and past 32, and zero divisors.
func TestEvalTable(t *testing.T) {
	const (
		maxI = 0x7fffffff // MaxInt32
		minI = 0x80000000 // MinInt32
		m1   = 0xffffffff // -1
	)
	cases := []struct {
		op   isa.Op
		l, r uint32
		want uint32
		ok   bool
	}{
		{isa.Add, maxI, 1, minI, true},
		{isa.Add, m1, 1, 0, true},
		{isa.Sub, minI, 1, maxI, true},
		{isa.Sub, 0, 1, m1, true},
		{isa.Mul, maxI, 2, 0xfffffffe, true},
		{isa.Mul, minI, m1, minI, true},
		{isa.Div, 7, 2, 3, true},
		{isa.Div, 0xfffffff9, 2, 0xfffffffd, true}, // -7 / 2 = -3 (truncates)
		{isa.Div, m1, 2, 0, true},                  // signed: -1 / 2 = 0
		{isa.Div, minI, m1, minI, true},
		{isa.Div, 1, 0, 0, false},
		{isa.Div, 0, 0, 0, false},
		{isa.Mod, 0xfffffff9, 3, m1, true}, // -7 % 3 = -1
		{isa.Mod, 7, 0xfffffffd, 1, true},  // 7 % -3 = 1
		{isa.Mod, m1, 7, m1, true},         // signed: -1 % 7 = -1
		{isa.Mod, minI, m1, 0, true},
		{isa.Mod, 5, 0, 0, false},
		{isa.And, 0xf0f0, 0xff00, 0xf000, true},
		{isa.Or, 0xf0f0, 0x0f00, 0xfff0, true},
		{isa.Xor, m1, maxI, minI, true},
		{isa.Shl, 1, 31, minI, true},
		{isa.Shl, 1, 32, 1, true},
		{isa.Shl, 1, 33, 2, true},
		{isa.Shr, minI, 31, 1, true}, // logical, not arithmetic
		{isa.Shr, 0xfffffff8, 1, 0x7ffffffc, true},
		{isa.Shr, minI, 32, minI, true},
		{isa.Shr, minI, 33, 0x40000000, true},
		{isa.Neg, 1, 0, m1, true},
		{isa.Neg, minI, 0, minI, true},
		{isa.Not, 0, 0, m1, true},
		{isa.LNot, 0, 0, 1, true},
		{isa.LNot, minI, 0, 0, true},
		{isa.CmpEq, m1, m1, 1, true},
		{isa.CmpNe, m1, m1, 0, true},
		{isa.CmpLt, m1, 0, 1, true},
		{isa.CmpLt, minI, maxI, 1, true},
		{isa.CmpLe, maxI, maxI, 1, true},
		{isa.CmpGt, 0, m1, 1, true},
		{isa.CmpGe, minI, maxI, 0, true},
		{isa.CmpLtU, m1, 0, 0, true},
		{isa.CmpLtU, maxI, minI, 1, true},
		{isa.CmpLeU, 0, 0, 1, true},
		{isa.CmpGtU, m1, 0, 1, true},
		{isa.CmpGeU, 0, m1, 0, true},
		{isa.PushI, 1, 2, 0, false},
		{isa.Jmp, 1, 2, 0, false},
	}
	for _, c := range cases {
		got, ok := isa.Eval(c.op, c.l, c.r)
		if got != c.want || ok != c.ok {
			t.Errorf("Eval(%s, %#x, %#x) = %#x, %v; want %#x, %v", c.op, c.l, c.r, got, ok, c.want, c.ok)
		}
	}
	// Every opcode Eval accepts is an ALU-class opcode.
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if _, ok := isa.Eval(op, 1, 1); ok && isa.Lookup(op).Class != isa.ClassALU {
			t.Errorf("Eval accepts non-ALU opcode %s", op)
		}
	}
}
