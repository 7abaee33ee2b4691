package vm

import (
	"slices"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

// InstrAt exposes the decoded-table lookup: the instruction starting at
// pc and the address after it, or ok=false when pc is not an instruction
// boundary.
func (m *Machine) InstrAt(pc uint32) (in isa.Instr, next uint32, ok bool) {
	d := m.instrAt(pc)
	if d == nil {
		return isa.Instr{}, 0, false
	}
	return d.in, d.next, true
}

// StepAt executes the single instruction at pc on a powered machine whose
// stack holds a few spare words, as Run's inner loop would, and returns
// the program fault it raised (nil when it executed cleanly).
func (m *Machine) StepAt(pc uint32) (fault error) {
	top := m.Img.StackBase + m.Img.StackLen - 64
	m.Regs = Registers{PC: pc, SP: top, FP: top}
	m.PowerOn(1 << 40)
	return faultOf(func() { m.step(m.instrAt(pc)) })
}

// faultOf runs fn and returns the program fault it raised, nil when it
// ran cleanly.
func faultOf(fn func()) (fault error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case machineFault:
			fault = r.err
		case mem.RangeError:
			fault = r
		default:
			panic(r)
		}
	}()
	fn()
	return nil
}

// ExecOp executes op as the interpreter does and returns its fault.
func (m *Machine) ExecOp(op isa.Op) error { return faultOf(func() { m.exec(isa.Instr{Op: op}) }) }

// PopPushOp is the reference for the in-place ALU, compare and unary
// ops: it executes op as Pop, Pop, Push (Pop, Push for a unary op) and
// returns its fault.
func (m *Machine) PopPushOp(op isa.Op) error {
	return faultOf(func() {
		switch op {
		case isa.Neg, isa.Not, isa.LNot:
			v, _ := isa.Eval(op, m.Pop(), 0)
			m.Push(v)
			return
		}
		r := m.Pop()
		v, ok := isa.Eval(op, m.Pop(), r)
		if !ok {
			m.zeroDivisor(op)
		}
		m.Push(v)
	})
}

// Powered runs fn in a powered window of the given cycles, as a boot
// inside runWindow would, and reports whether the window ran out (a
// power failure) before fn returned.
func (m *Machine) Powered(cycles int64, fn func()) (failed bool) {
	m.PowerOn(cycles)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFailure); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	fn()
	return false
}

// SetSingleStep turns straight-line runs off, so a test can hold the run
// path to single-stepping: the machine gets a private copy of its decoded
// table with every run length zeroed, and runWindow then steps every
// instruction. Reset keeps the copy.
func (m *Machine) SetSingleStep() {
	m.decoded = slices.Clone(m.decoded)
	for i := range m.decoded {
		m.decoded[i].run, m.decoded[i].runMem = 0, 0
	}
}

// SpendEach exposes spendEach: k charges of c cycles in one batch.
func (m *Machine) SpendEach(c int64, k int) { m.spendEach(c, k) }

// RunAt reports the straight-line run decoded at pc: its length and how
// many of its instructions are ClassMem.
func (m *Machine) RunAt(pc uint32) (n, mems int) {
	d := m.instrAt(pc)
	if d == nil {
		return 0, 0
	}
	return int(d.run), int(d.runMem)
}

// DecodedInstrSize is the size of one decoded-table slot.
const DecodedInstrSize = unsafe.Sizeof(decodedInstr{})

// OnMs returns the powered time so far, the float Spend accumulates.
func (m *Machine) OnMs() float64 { return m.onMs }

// EstMs returns the device clock's running estimate, the float Now
// truncates.
func (m *Machine) EstMs() float64 { return m.estMs }

// ClockOff adds an outage of ms to the device clock, estimated by the
// timekeeper as a power failure would.
func (m *Machine) ClockOff(ms float64) { m.estMs += m.clock.OffEstimate(ms) }

// AddEach exposes addEach: x after k rounded adds of d.
func AddEach(x, d float64, k int) float64 { return addEach(x, d, k) }

// WindowAt reports the stack window decoded for the run at pc: the bytes
// [SP+lo, SP+hi) it touches, SP taken at the run's start (lo == hi: no
// window), and the stack words it reads and writes.
func (m *Machine) WindowAt(pc uint32) (lo, hi, reads, writes int) {
	w := m.windows[pc-m.textBase]
	return int(w.lo), int(w.hi), int(w.reads), int(w.writes)
}
