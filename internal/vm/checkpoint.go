package vm

import "repro/internal/obs"

// CheckpointMeta is the size of the register meta every checkpoint slot
// starts with: PC, SP, FP, RV and CpDisable. The runtime's meta words
// follow it, then its payload.
const CheckpointMeta = 5 * 4

// CheckpointSlots is the double-buffered restore point of the paper's
// checkpoint (§4), shared by TICS, Chinchilla and Mementos. Its layout
// from the runtime area's base is
//
//	[magic][active][aux][pad] [slot 0] [slot 1]
//
// The magic is set once a checkpoint has committed since the cold boot;
// active selects the slot a reboot restores; aux is the runtime's (TICS
// and Chinchilla keep their undo-log header there).
//
// A checkpoint is Begin, the runtime's meta words and payload, Commit,
// the runtime's commit bookkeeping, then Done; a restore is Restore, the
// runtime's meta words and payload, then Restored. The runtime passes its
// own NV-write charges to Begin and Commit.
type CheckpointSlots struct {
	base, magic uint32
	slot        [2]uint32
	active      int  // volatile mirror of the active word
	sealing     bool // a cold boot awaits its first checkpoint's Done
}

// CheckpointAreaBytes returns the bytes CheckpointSlots with slots of
// slotBytes each occupy.
func CheckpointAreaBytes(slotBytes int) int { return 16 + 2*slotBytes }

// NewCheckpointSlots lays out the restore point at base.
func NewCheckpointSlots(base, magic uint32, slotBytes int) CheckpointSlots {
	return CheckpointSlots{base: base, magic: magic, slot: [2]uint32{base + 16, base + 16 + uint32(slotBytes)}}
}

// Aux returns the address of the runtime's word.
func (s *CheckpointSlots) Aux() uint32 { return s.base + 8 }

// End returns the address one past slot 1.
func (s *CheckpointSlots) End() uint32 { return 2*s.slot[1] - s.slot[0] }

// Boot reports whether the device holds a checkpoint to restore: not a
// cold boot, and the magic set. Otherwise it charges RestoreBase and
// points the registers at the program entry; the runtime then resets its
// state and takes its first checkpoint past its gates, whose Done writes
// the magic.
func (s *CheckpointSlots) Boot(m *Machine, cold bool) (restore bool) {
	if !cold && m.Mem.ReadWord(s.base) == s.magic {
		return true
	}
	m.Spend(m.Cost.RestoreBase)
	m.Regs, m.CpDisable = EntryRegisters(m.Img), 0
	s.sealing = true
	return false
}

// Reset makes slot 0 the active one. Its write is paid for by the boot.
func (s *CheckpointSlots) Reset(m *Machine) {
	m.Mem.WriteWord(s.base+4, 0)
	s.active = 0
}

// Begin opens a checkpoint of kind capturing bytes: it charges
// CheckpointBase and metaWords NV writes, writes the register meta into
// the inactive slot and returns that slot.
func (s *CheckpointSlots) Begin(m *Machine, kind CpKind, bytes int, metaWords int64) uint32 {
	m.EmitEvent(obs.EvCheckpointBegin, int64(kind), int64(bytes))
	m.PushCat(obs.CatCheckpoint)
	m.Spend(m.Cost.CheckpointBase)
	slot := s.slot[1-s.active]
	m.Spend(metaWords * m.Cost.NVWritePerWord)
	m.Mem.WriteWord(slot+0, m.Regs.PC)
	m.Mem.WriteWord(slot+4, m.Regs.SP)
	m.Mem.WriteWord(slot+8, m.Regs.FP)
	m.Mem.WriteWord(slot+12, m.Regs.RV)
	m.Mem.WriteWord(slot+16, uint32(m.CpDisable))
	return slot
}

// Commit flips the active word to Begin's slot. It first charges
// preWords NV writes, for the flip and what the runtime writes before
// Done: power fails only inside Spend, so a torn checkpoint always
// restores the old slot, and a committed one always reaches Done.
func (s *CheckpointSlots) Commit(m *Machine, preWords int64) {
	m.Spend(preWords * m.Cost.NVWritePerWord)
	s.active = 1 - s.active
	m.Mem.WriteWord(s.base+4, uint32(s.active))
}

// Done records the committed checkpoint. After a cold boot's first
// checkpoint it writes the magic (one charged word), so the magic never
// marks a slot no checkpoint filled.
func (s *CheckpointSlots) Done(m *Machine, kind CpKind) {
	m.PopCat()
	m.NoteCheckpoint(kind)
	if s.sealing {
		m.Spend(m.Cost.NVWritePerWord)
		m.Mem.WriteWord(s.base, s.magic)
		s.sealing = false
	}
}

// Restore charges RestoreBase, re-reads the active word and returns the
// active slot.
func (s *CheckpointSlots) Restore(m *Machine) uint32 {
	m.Spend(m.Cost.RestoreBase)
	s.active = int(m.Mem.ReadWord(s.base+4) & 1)
	return s.slot[s.active]
}

// SavedSP reads the active slot's SP.
func (s *CheckpointSlots) SavedSP(m *Machine) uint32 { return m.Mem.ReadWord(s.slot[s.active] + 4) }

// Restored reloads the registers, with sp from SavedSP, and CpDisable,
// and records the restore. A runtime whose payload is the used stack
// reads sp before copying it back; each meta word is read once.
func (s *CheckpointSlots) Restored(m *Machine, sp uint32) {
	slot := s.slot[s.active]
	m.Regs = Registers{PC: m.Mem.ReadWord(slot), SP: sp, FP: m.Mem.ReadWord(slot + 8), RV: m.Mem.ReadWord(slot + 12)}
	m.CpDisable = int(m.Mem.ReadWord(slot + 16))
	m.NoteRestore()
	m.Count(CtrRestores)
}
