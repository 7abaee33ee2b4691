// Package isa defines the bytecode instruction set executed by the
// simulated MCU. It is a stack machine over 32-bit words with a 64 KB
// byte-addressed non-volatile memory; the call stack lives in memory (so
// that TICS can segment it) and only PC/SP/FP/RV are registers.
//
// Instructions are one opcode byte optionally followed by one 32-bit
// little-endian immediate. The "L"-suffixed store variants are the
// *instrumented* forms inserted by the per-runtime instrumentation pass:
// they route through the runtime's memory-consistency manager (TICS: the
// working-stack address check plus undo logging).
package isa

import "fmt"

// Op is a bytecode opcode.
type Op byte

// Opcodes. The groupings mirror the cost classes in energy.CostModel.
const (
	Nop Op = iota
	Halt

	// Stack manipulation (ALU cost class).
	PushI // imm: push constant
	Dup
	Drop
	Swap

	// Memory (mem cost class).
	LoadG    // imm: push word at absolute address
	StoreG   // imm: pop word to absolute address
	StoreGL  // imm: instrumented StoreG (undo-logged)
	LoadGB   // imm: push zero-extended byte at absolute address
	StoreGB  // imm: pop, store low byte at absolute address
	StoreGBL // imm: instrumented StoreGB
	LoadL    // imm: push word at FP+imm (signed offset)
	StoreL   // imm: pop word to FP+imm
	AddrL    // imm: push FP+imm
	LoadI    // pop addr, push word
	StoreI   // pop value, pop addr, store word
	StoreIL  // instrumented StoreI (range check + undo log)
	LoadIB   // pop addr, push zero-extended byte
	StoreIB  // pop value, pop addr, store byte
	StoreIBL // instrumented StoreIB

	// ALU (ALU cost class). Binary ops pop rhs then lhs, push result.
	Add
	Sub
	Mul
	Div // signed; divide by zero halts the machine with a fault
	Mod
	And
	Or
	Xor
	Shl
	Shr // logical shift right
	Neg
	Not  // bitwise complement
	LNot // logical not: push(pop == 0)
	CmpEq
	CmpNe
	CmpLt // signed comparisons push 0/1
	CmpLe
	CmpGt
	CmpGe
	CmpLtU // unsigned comparisons
	CmpLeU
	CmpGtU
	CmpGeU

	// Control (control cost class).
	Jmp   // imm: absolute text address
	Jz    // imm: pop, jump if zero
	Jnz   // imm: pop, jump if nonzero
	Call  // imm: push return PC, jump
	Enter // imm: function index; runtime prologue (stack check / grow)
	Leave // runtime epilogue + return (pops saved FP and return PC)
	SetRV // pop into RV
	GetRV // push RV
	AddSP // imm: SP += imm (caller pops arguments)

	// Peripherals and runtime services (trap cost class).
	Sense    // imm: sensor id; push reading
	Send     // pop value to the radio log
	Out      // imm: channel id; pop value to the output log
	Mark     // imm: counter id; increment NV mark counter (logged store)
	Now      // push persistent-timekeeper milliseconds
	Chkpt    // manual checkpoint request
	CpDis    // disable automatic checkpoints (atomic-region begin)
	CpEn     // enable automatic checkpoints
	SetTS    // pop shadow-timestamp slot address; write Now() to it
	ExpBegin // imm: skip target; pop duration, pop ts slot addr; jump if expired
	ExpCatch // imm: catch target; pop duration, pop ts slot addr; arm expiry
	ExpEnd   // disarm expiry
	Timely   // imm: else target; pop absolute deadline; jump if now >= deadline
	TransTo  // imm: task id; task-based runtimes' transition trap

	opCount
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Class is the cost class of an opcode.
type Class uint8

const (
	ClassALU Class = iota
	ClassMem
	ClassCtl
	ClassTrap
)

// Info describes an opcode's static properties.
type Info struct {
	Name   string
	HasImm bool
	Class  Class
}

var infos = [opCount]Info{
	Nop:      {"nop", false, ClassALU},
	Halt:     {"halt", false, ClassCtl},
	PushI:    {"pushi", true, ClassALU},
	Dup:      {"dup", false, ClassALU},
	Drop:     {"drop", false, ClassALU},
	Swap:     {"swap", false, ClassALU},
	LoadG:    {"loadg", true, ClassMem},
	StoreG:   {"storeg", true, ClassMem},
	StoreGL:  {"storeg.l", true, ClassMem},
	LoadGB:   {"loadgb", true, ClassMem},
	StoreGB:  {"storegb", true, ClassMem},
	StoreGBL: {"storegb.l", true, ClassMem},
	LoadL:    {"loadl", true, ClassMem},
	StoreL:   {"storel", true, ClassMem},
	AddrL:    {"addrl", true, ClassALU},
	LoadI:    {"loadi", false, ClassMem},
	StoreI:   {"storei", false, ClassMem},
	StoreIL:  {"storei.l", false, ClassMem},
	LoadIB:   {"loadib", false, ClassMem},
	StoreIB:  {"storeib", false, ClassMem},
	StoreIBL: {"storeib.l", false, ClassMem},
	Add:      {"add", false, ClassALU},
	Sub:      {"sub", false, ClassALU},
	Mul:      {"mul", false, ClassALU},
	Div:      {"div", false, ClassALU},
	Mod:      {"mod", false, ClassALU},
	And:      {"and", false, ClassALU},
	Or:       {"or", false, ClassALU},
	Xor:      {"xor", false, ClassALU},
	Shl:      {"shl", false, ClassALU},
	Shr:      {"shr", false, ClassALU},
	Neg:      {"neg", false, ClassALU},
	Not:      {"not", false, ClassALU},
	LNot:     {"lnot", false, ClassALU},
	CmpEq:    {"cmpeq", false, ClassALU},
	CmpNe:    {"cmpne", false, ClassALU},
	CmpLt:    {"cmplt", false, ClassALU},
	CmpLe:    {"cmple", false, ClassALU},
	CmpGt:    {"cmpgt", false, ClassALU},
	CmpGe:    {"cmpge", false, ClassALU},
	CmpLtU:   {"cmpltu", false, ClassALU},
	CmpLeU:   {"cmpleu", false, ClassALU},
	CmpGtU:   {"cmpgtu", false, ClassALU},
	CmpGeU:   {"cmpgeu", false, ClassALU},
	Jmp:      {"jmp", true, ClassCtl},
	Jz:       {"jz", true, ClassCtl},
	Jnz:      {"jnz", true, ClassCtl},
	Call:     {"call", true, ClassCtl},
	Enter:    {"enter", true, ClassCtl},
	Leave:    {"leave", false, ClassCtl},
	SetRV:    {"setrv", false, ClassALU},
	GetRV:    {"getrv", false, ClassALU},
	AddSP:    {"addsp", true, ClassALU},
	Sense:    {"sense", true, ClassTrap},
	Send:     {"send", false, ClassTrap},
	Out:      {"out", true, ClassTrap},
	Mark:     {"mark", true, ClassTrap},
	Now:      {"now", false, ClassTrap},
	Chkpt:    {"chkpt", false, ClassTrap},
	CpDis:    {"cpdis", false, ClassTrap},
	CpEn:     {"cpen", false, ClassTrap},
	SetTS:    {"setts", false, ClassTrap},
	ExpBegin: {"expbegin", true, ClassTrap},
	ExpCatch: {"expcatch", true, ClassTrap},
	ExpEnd:   {"expend", false, ClassTrap},
	Timely:   {"timely", true, ClassTrap},
	TransTo:  {"transto", true, ClassTrap},
}

// Lookup returns the Info for op. It panics on an undefined opcode, which
// indicates a corrupted text image.
func Lookup(op Op) Info {
	if int(op) >= NumOps {
		panic(fmt.Sprintf("isa: undefined opcode %d", op))
	}
	return infos[op]
}

// Valid reports whether op is a defined opcode.
func Valid(op Op) bool { return int(op) < NumOps }

func (op Op) String() string {
	if !Valid(op) {
		return fmt.Sprintf("op(%d)", byte(op))
	}
	return infos[op].Name
}

// Size returns the encoded size of an instruction with opcode op.
func Size(op Op) int {
	if Lookup(op).HasImm {
		return 5
	}
	return 1
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Imm int32
}

// Size returns the encoded size of the instruction.
func (i Instr) Size() int { return Size(i.Op) }

func (i Instr) String() string {
	if Lookup(i.Op).HasImm {
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	}
	return i.Op.String()
}

// Encode appends the instruction's encoding to buf.
func (i Instr) Encode(buf []byte) []byte {
	buf = append(buf, byte(i.Op))
	if Lookup(i.Op).HasImm {
		v := uint32(i.Imm)
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// Decode reads one instruction from code at offset off. It returns the
// instruction and the offset of the next one.
func Decode(code []byte, off int) (Instr, int, error) {
	if off >= len(code) {
		return Instr{}, off, fmt.Errorf("isa: decode past end of text at %#x", off)
	}
	op := Op(code[off])
	if !Valid(op) {
		return Instr{}, off, fmt.Errorf("isa: undefined opcode %d at %#x", byte(op), off)
	}
	if !infos[op].HasImm {
		return Instr{Op: op}, off + 1, nil
	}
	if off+5 > len(code) {
		return Instr{}, off, fmt.Errorf("isa: truncated immediate for %s at %#x", op, off)
	}
	v := uint32(code[off+1]) | uint32(code[off+2])<<8 | uint32(code[off+3])<<16 | uint32(code[off+4])<<24
	return Instr{Op: op, Imm: int32(v)}, off + 5, nil
}

// EncodeAll encodes a sequence of instructions.
func EncodeAll(instrs []Instr) []byte {
	var buf []byte
	for _, in := range instrs {
		buf = in.Encode(buf)
	}
	return buf
}

// DecodeAll decodes an entire text section into instructions, returning
// also the byte offset of each decoded instruction.
func DecodeAll(code []byte) ([]Instr, []int, error) {
	var instrs []Instr
	var offs []int
	for off := 0; off < len(code); {
		in, next, err := Decode(code, off)
		if err != nil {
			return nil, nil, err
		}
		offs = append(offs, off)
		instrs = append(instrs, in)
		off = next
	}
	return instrs, offs, nil
}

// IsStore reports whether op writes memory through a program-visible store
// (the instrumentation pass rewrites these).
func IsStore(op Op) bool {
	switch op {
	case StoreG, StoreGB, StoreI, StoreIB, StoreGL, StoreGBL, StoreIL, StoreIBL:
		return true
	}
	return false
}

// Logged returns the instrumented variant of a plain store opcode, or the
// opcode unchanged if it is not a plain store.
func Logged(op Op) Op {
	switch op {
	case StoreG:
		return StoreGL
	case StoreGB:
		return StoreGBL
	case StoreI:
		return StoreIL
	case StoreIB:
		return StoreIBL
	}
	return op
}

// Unlogged returns the plain variant of an instrumented store opcode.
func Unlogged(op Op) Op {
	switch op {
	case StoreGL:
		return StoreG
	case StoreGBL:
		return StoreGB
	case StoreIL:
		return StoreI
	case StoreIBL:
		return StoreIB
	}
	return op
}

// Eval is the one definition of what an ALU opcode computes; the VM, both
// constant folders in the compiler and the static analyzer's abstract
// stack all call it. Binary ops take lhs l and rhs r; the unary Neg, Not
// and LNot read l and ignore r. Words wrap at 32 bits. Div, Mod and the
// Cmp* ops are signed (two's complement; MinInt32 / -1 is MinInt32,
// MinInt32 % -1 is 0), Cmp*U are unsigned, Shr is a logical shift, and
// shift counts are taken mod 32. Comparisons and LNot yield 0 or 1.
// The C compiler emits the signed Div and Mod for every integer type and
// Shr for every >>; only comparisons have unsigned forms.
//
// ok is false for a non-ALU op and for Div or Mod by zero, which the VM
// turns into a fault and the folders leave unfolded.
func Eval(op Op, l, r uint32) (v uint32, ok bool) {
	li, ri := int32(l), int32(r)
	switch op {
	case Add:
		return l + r, true
	case Sub:
		return l - r, true
	case Mul:
		return l * r, true
	case Div:
		if r == 0 {
			return 0, false
		}
		return uint32(li / ri), true
	case Mod:
		if r == 0 {
			return 0, false
		}
		return uint32(li % ri), true
	case And:
		return l & r, true
	case Or:
		return l | r, true
	case Xor:
		return l ^ r, true
	case Shl:
		return l << (r & 31), true
	case Shr:
		return l >> (r & 31), true
	case Neg:
		return -l, true
	case Not:
		return ^l, true
	case LNot:
		return b2u(l == 0), true
	case CmpEq:
		return b2u(l == r), true
	case CmpNe:
		return b2u(l != r), true
	case CmpLt:
		return b2u(li < ri), true
	case CmpLe:
		return b2u(li <= ri), true
	case CmpGt:
		return b2u(li > ri), true
	case CmpGe:
		return b2u(li >= ri), true
	case CmpLtU:
		return b2u(l < r), true
	case CmpLeU:
		return b2u(l <= r), true
	case CmpGtU:
		return b2u(l > r), true
	case CmpGeU:
		return b2u(l >= r), true
	}
	return 0, false
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
