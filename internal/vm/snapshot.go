package vm

import (
	"maps"
	"slices"

	"repro/internal/mem"
	"repro/internal/timekeeper"
)

// Snapshot is a machine's whole run state at an instruction boundary:
// registers, cycle, time and runtime counters, the device clock's
// estimate, interrupt and expiry state, the committed and pending send
// and out logs, the memory as its private pages over the shared image,
// and a copy of the runtime and — once a power failure has consulted it —
// of the timekeeper. It leaves out what a run reads but never changes —
// the image, the config, the sensor bank (a pure function of seed,
// channel and time) — and what the machine it is restored into brings
// along: its power source, recorder and observers, and, for a snapshot
// taken before the first failure, its timekeeper. A snapshot is
// immutable; any number of machines forked from the same Prepared image
// can start from it (RunFrom).
//
// So a snapshot is shared across machines that differ in seed, that is,
// across the devices of a fleet, when the run it was taken from had read
// neither the sensor bank (Machine.Sensed) nor Remaining() and had not
// failed yet, and when the restoring machine's first window covers it.
type Snapshot struct {
	st    runState
	mem   mem.Pages
	clock timekeeper.Keeper // nil before the first power failure
	rt    Runtime
}

// Cycles returns the cycle count the snapshot was taken at.
func (s *Snapshot) Cycles() int64 { return s.st.cycles }

// Snapshot captures the machine's run state. Take it between
// instructions (from a SetBoundaryHook hook), where RunFrom can continue.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{st: m.runState, rt: m.rt.CloneInto(nil)}
	// A keeper is consulted only at a power failure: before the first one
	// it is in its initial state, which the restoring machine's own keeper
	// is in too, whatever its seed.
	if m.failures > 0 {
		s.clock = m.clock.Clone()
	}
	s.st.SendLog = slices.Clone(m.SendLog)
	s.st.sendPending = slices.Clone(m.sendPending)
	s.st.outPending = slices.Clone(m.outPending)
	s.st.OutLog = cloneOutLog(m.OutLog)
	m.Mem.SavePages(&s.mem)
	return s
}

// restore puts a machine that has not run since New or Reset into the
// state s was taken in. The machine must fork from the same Prepared
// image as the snapshotted one and run the same kind of runtime, whose
// instance takes the snapshot's state in place; its power source,
// sensors, recorder and observers stay, and so do its own out log map
// (refilled) and, when s was taken before the first power failure, its
// timekeeper.
func (m *Machine) restore(s *Snapshot) error {
	if err := m.Mem.RestorePages(&s.mem); err != nil {
		return err
	}
	sendPending, outPending, outLog := m.sendPending[:0], m.outPending[:0], m.OutLog
	m.runState = s.st
	m.SendLog = slices.Clone(s.st.SendLog)
	m.sendPending = append(sendPending, s.st.sendPending...)
	m.outPending = append(outPending, s.st.outPending...)
	clear(outLog)
	for ch, vals := range s.st.OutLog {
		outLog[ch] = slices.Clone(vals)
	}
	m.OutLog = outLog
	if s.clock != nil {
		m.clock = s.clock.Clone()
	}
	m.setRuntime(s.rt.CloneInto(m.rt))
	return nil
}

// cloneOutLog deep-copies an out log.
func cloneOutLog(log map[int32][]int32) map[int32][]int32 {
	out := maps.Clone(log)
	for ch, vals := range out {
		out[ch] = slices.Clone(vals)
	}
	return out
}
