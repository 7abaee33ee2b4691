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
// and clones of the timekeeper and the runtime. It leaves out what a run
// reads but never changes — the image, the config, the sensor bank (a
// pure function of channel and time) — and what the machine it is
// restored into brings along: its power source, recorder and observers.
// A snapshot is immutable; any number of machines forked from the same
// Prepared image can Restore it.
type Snapshot struct {
	st    runState
	mem   mem.Pages
	clock timekeeper.Keeper
	rt    Runtime
}

// Cycles returns the cycle count the snapshot was taken at.
func (s *Snapshot) Cycles() int64 { return s.st.cycles }

// Snapshot captures the machine's run state. Take it between
// instructions (from a SetBoundaryHook hook), where Resume can continue.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{st: m.runState, clock: m.clock.Clone(), rt: m.rt.Clone()}
	s.st.SendLog = slices.Clone(m.SendLog)
	s.st.sendPending = slices.Clone(m.sendPending)
	s.st.outPending = slices.Clone(m.outPending)
	s.st.OutLog = cloneOutLog(m.OutLog)
	m.Mem.SavePages(&s.mem)
	return s
}

// Restore puts the machine into the state s was taken in. The machine
// must fork from the same Prepared image as the snapshotted one and run
// the same kind of runtime; its power source, sensors, recorder and
// observers stay. Resume continues the run.
func (m *Machine) Restore(s *Snapshot) error {
	if err := m.Mem.RestorePages(&s.mem); err != nil {
		return err
	}
	sendPending, outPending := m.sendPending[:0], m.outPending[:0]
	m.runState = s.st
	m.SendLog = slices.Clone(s.st.SendLog)
	m.sendPending = append(sendPending, s.st.sendPending...)
	m.outPending = append(outPending, s.st.outPending...)
	m.OutLog = cloneOutLog(s.st.OutLog)
	m.clock = s.clock.Clone()
	m.setRuntime(s.rt.Clone())
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
