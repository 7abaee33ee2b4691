package vm

import "repro/internal/link"

// Runtime is the intermittency-protection strategy plugged into the
// machine: the operations every runtime defines for itself. internal/core
// implements TICS; internal/baseline and internal/taskrt implement the
// systems TICS is compared against. Behaviour most runtimes share lives
// in the optional hooks below, with defaults in the machine. A runtime
// keeps its counters in the machine (Machine.Count), not in itself.
type Runtime interface {
	Name() string
	// Boot runs at every power-up. cold is true only for the first boot of
	// a fresh device; afterwards the runtime restores whatever state its
	// strategy preserved. Boot must set the register file.
	Boot(m *Machine, cold bool)
	// LoggedStore implements the instrumented store opcodes: the runtime
	// applies its consistency discipline (undo logging, privatization)
	// and performs the write.
	LoggedStore(m *Machine, addr uint32, size int, value uint32)
	// Checkpoint handles a checkpoint request. Runtimes without
	// checkpoints treat it as a no-op.
	Checkpoint(m *Machine, kind CpKind)
	// CloneInto returns an independent copy of the runtime: its volatile
	// mirrors and undo-log position, sharing nothing mutable with the
	// original. When dst is a runtime of the same kind the copy is
	// written into it and dst is returned; otherwise (dst nil) it is
	// newly allocated. A machine Snapshot holds one copy, and a machine
	// starting from the snapshot copies it into the runtime it was built
	// with, so a restored start builds no second runtime.
	CloneInto(dst Runtime) Runtime
}

// Framer replaces the conventional function prologue and epilogue (TICS:
// stack grow/shrink). Default: push FP, reserve the frame with an
// overflow check; Leave restores FP and returns.
type Framer interface {
	// Enter implements the Enter opcode. fn indexes the image's function
	// table; the machine has already advanced PC past the instruction.
	Enter(m *Machine, fn int)
	// Leave implements the Leave opcode and must set PC to the return
	// address.
	Leave(m *Machine)
}

// PreStorer runs at the start of every instrumented-store instruction,
// before its operands are popped. A runtime whose log is full takes its
// forced checkpoint here, so the saved PC re-executes the whole store
// instruction on restore (a checkpoint taken after the pops would resume
// with a corrupted operand stack). Default: no call at all.
type PreStorer interface {
	PreStore(m *Machine)
}

// Expirer handles an armed @expires/catch deadline passing (TICS: restore
// to the block-entry checkpoint). Default: nothing — a conventional
// runtime cannot unwind to the catch handler mid-block, so the expiration
// goes unhandled; the @expires entry check still routes stale data to
// catch.
type Expirer interface {
	OnExpiry(m *Machine)
}

// Transitioner handles the TransTo opcode (task-based runtimes). Default:
// a "not a task runtime" fault.
type Transitioner interface {
	Transition(m *Machine, task int32)
}

// Interrupter delivers interrupts (TICS disables automatic checkpoints
// for the ISR's duration and checkpoints after its return, §4). Default:
// a call-like transfer into the ISR and nothing on return.
type Interrupter interface {
	OnInterrupt(m *Machine, isrEntry uint32)
	OnInterruptReturn(m *Machine)
}

// Func returns function fn's metadata (shared with the image: read
// only), faulting on a bad index.
func (m *Machine) Func(fn int) *link.FuncMeta {
	meta, err := m.Img.FuncAt(fn)
	if err != nil {
		panic(machineFault{err})
	}
	return meta
}

// enter is the default prologue.
func (m *Machine) enter(fn int) {
	meta := m.Func(fn)
	if m.Regs.SP < m.Img.StackBase+uint32(meta.FrameBytes) {
		m.Fault("stack overflow entering %s", meta.Name)
	}
	m.Push(m.Regs.FP)
	m.Regs.FP = m.Regs.SP
	m.Regs.SP -= uint32(meta.LocalBytes)
}

// leave is the default epilogue plus return.
func (m *Machine) leave() {
	m.Regs.SP = m.Regs.FP
	m.Regs.FP = m.Pop()
	m.Regs.PC = m.Pop()
}
