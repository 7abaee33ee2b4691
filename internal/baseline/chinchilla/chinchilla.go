// Package chinchilla implements the Chinchilla-style checkpointing
// baseline (§5.3.1): every local variable and parameter is promoted to a
// statically allocated global in non-volatile memory at compile time
// (cc.Options.StaticLocals — which is why recursion does not compile),
// every store to promoted or global data is logged into a static
// double-buffer log, and the program is over-instrumented with trigger
// checkpoints that a skip heuristic dynamically disables when the last
// checkpoint is recent.
//
// The static promotion is also the source of Chinchilla's memory blow-up
// in Table 3: the globals space carries every function's frame whether or
// not it is live, and the runtime double-buffers it all.
package chinchilla

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Config tunes the runtime.
type Config struct {
	// UndoCapBytes sizes the static write log (default 4096).
	UndoCapBytes int
	// MinGapCycles is the skip heuristic: trigger checkpoints are skipped
	// while the last checkpoint is more recent than this (default 4000).
	MinGapCycles int64
	// StackBytes sizes the (small) machine stack (default 1024: with
	// promoted locals the stack only holds return PCs and temporaries).
	StackBytes int
}

func (c Config) withDefaults() Config {
	if c.UndoCapBytes == 0 {
		c.UndoCapBytes = 4096
	}
	if c.MinGapCycles == 0 {
		c.MinGapCycles = 4000
	}
	if c.StackBytes == 0 {
		c.StackBytes = 1024
	}
	return c
}

// Modeled runtime footprint: Chinchilla's instrumentation-heavy runtime is
// roughly twice the TICS library (Table 3).
const (
	runtimeTextBytes = 5600
	runtimeDataBytes = 512
)

const (
	initMagic   = 0x4348494E // "CHIN"
	slotMetaLen = 6 * 4
)

// Spec returns the linker spec. The modeled .data footprint carries the
// local-to-global explosion the paper describes: the promoted globals
// space is double-buffered wholesale, a swap buffer backs the two-phase
// commit, and every promoted variable needs dirty-tracking metadata —
// roughly 3.5× the (already inflated) globals space on top of the image.
func Spec(cfg Config, prog *cc.Program) link.RuntimeSpec {
	cfg = cfg.withDefaults()
	return link.RuntimeSpec{
		Name:           "chinchilla",
		RuntimeBytes:   16 + 2*(slotMetaLen+cfg.StackBytes) + cfg.UndoCapBytes,
		StackBytes:     cfg.StackBytes,
		ExtraTextBytes: runtimeTextBytes,
		ExtraDataBytes: runtimeDataBytes + 7*int(prog.GlobalsBytes())/2,
	}
}

// Chinchilla is the runtime. Apart from PreStore it keeps the optional vm
// hooks at their defaults: with promoted locals the conventional frame
// reserves nothing on the stack, and it has no time semantics (Table 5).
type Chinchilla struct {
	cfg Config
	img *link.Image

	stackLen int

	addrMagic  uint32
	addrActive uint32
	addrSlot   [2]uint32
	// log is the write log, tagged with the checkpoint epoch.
	log vm.UndoLog

	active int
	epoch  uint32
}

var (
	_ vm.Runtime   = (*Chinchilla)(nil)
	_ vm.PreStorer = (*Chinchilla)(nil)
)

// New builds the runtime for an image linked with Spec. The image must
// have been compiled with cc.Options.StaticLocals.
func New(img *link.Image, cfg Config) (*Chinchilla, error) {
	cfg = cfg.withDefaults()
	if !img.Program.StaticLocals {
		return nil, fmt.Errorf("chinchilla: image was not compiled with static locals")
	}
	c := &Chinchilla{
		cfg:      cfg,
		img:      img,
		stackLen: int(img.StackLen),
	}
	a := img.RuntimeBase
	c.addrMagic = a
	c.addrActive = a + 4
	undoHdr := a + 8
	a += 16
	c.addrSlot[0] = a
	a += uint32(slotMetaLen + c.stackLen)
	c.addrSlot[1] = a
	a += uint32(slotMetaLen + c.stackLen)
	c.log = vm.NewUndoLog(undoHdr, a, cfg.UndoCapBytes, 4)
	a = c.log.End()
	if a > img.RuntimeBase+img.RuntimeLen {
		return nil, fmt.Errorf("chinchilla: runtime area too small: need %d B, have %d B",
			a-img.RuntimeBase, img.RuntimeLen)
	}
	return c, nil
}

// Name implements vm.Runtime.
func (c *Chinchilla) Name() string { return "chinchilla" }

// Clone implements vm.Runtime.
func (c *Chinchilla) Clone() vm.Runtime {
	d := *c
	return &d
}

// Boot implements vm.Runtime.
func (c *Chinchilla) Boot(m *vm.Machine, cold bool) {
	if cold || m.Mem.ReadWord(c.addrMagic) != initMagic {
		m.Spend(m.Cost.RestoreBase)
		m.Mem.WriteWord(c.addrActive, 0)
		c.log.Reset(m, 0)
		c.active, c.epoch = 0, 0
		m.Regs = vm.Registers{
			PC: c.img.EntryPC,
			SP: c.img.StackBase + c.img.StackLen,
			FP: c.img.StackBase + c.img.StackLen,
		}
		c.Checkpoint(m, vm.CpTimer) // bypass the gap gate
		m.Spend(m.Cost.NVWritePerWord)
		m.Mem.WriteWord(c.addrMagic, initMagic)
		return
	}
	c.restore(m)
}

func (c *Chinchilla) restore(m *vm.Machine) {
	m.Spend(m.Cost.RestoreBase)
	c.active = int(m.Mem.ReadWord(c.addrActive) & 1)
	slot := c.addrSlot[c.active]
	slotEpoch := m.Mem.ReadWord(slot + 20)
	if logEpoch, n := c.log.Header(m); logEpoch == slotEpoch&0xFFFF {
		c.log.Rollback(m, n)
	}
	m.Spend(m.Cost.NVWritePerWord)
	c.log.Reset(m, slotEpoch)
	c.epoch = slotEpoch

	sp := m.Mem.ReadWord(slot + 4)
	m.CopyCharged(sp, slot+slotMetaLen, int(c.img.StackBase+c.img.StackLen-sp), 1)
	m.Regs = vm.Registers{
		PC: m.Mem.ReadWord(slot + 0),
		SP: sp,
		FP: m.Mem.ReadWord(slot + 8),
		RV: m.Mem.ReadWord(slot + 12),
	}
	m.CpDisable = int(m.Mem.ReadWord(slot + 16))
	m.NoteRestore()
	m.Count(vm.CtrRestores)
}

// Checkpoint implements vm.Runtime: registers plus the (small) used stack,
// double-buffered; trigger checkpoints respect the skip heuristic.
func (c *Chinchilla) Checkpoint(m *vm.Machine, kind vm.CpKind) {
	if kind == vm.CpManual && m.SinceCheckpoint() < c.cfg.MinGapCycles {
		m.Count(vm.CtrSkippedTriggers)
		return
	}
	captured := slotMetaLen + int(c.img.StackBase+c.img.StackLen-m.Regs.SP)
	m.EmitEvent(obs.EvCheckpointBegin, int64(kind), int64(captured))
	c.log.ObserveLen(m)
	m.PushCat(obs.CatCheckpoint)
	m.Spend(m.Cost.CheckpointBase)
	target := 1 - c.active
	slot := c.addrSlot[target]
	newEpoch := c.epoch + 1
	m.Spend(6 * m.Cost.NVWritePerWord)
	m.Mem.WriteWord(slot+0, m.Regs.PC)
	m.Mem.WriteWord(slot+4, m.Regs.SP)
	m.Mem.WriteWord(slot+8, m.Regs.FP)
	m.Mem.WriteWord(slot+12, m.Regs.RV)
	m.Mem.WriteWord(slot+16, uint32(m.CpDisable))
	m.Mem.WriteWord(slot+20, newEpoch)
	m.CopyCharged(slot+slotMetaLen, m.Regs.SP, int(c.img.StackBase+c.img.StackLen-m.Regs.SP), 2)
	// Pre-charge the flag flip and undo-header reset so no failure point
	// sits between the durable commit and its bookkeeping (same atomic
	// tail as the TICS checkpoint; see core.TICS.Checkpoint).
	m.Spend(2 * m.Cost.NVWritePerWord)
	m.Mem.WriteWord(c.addrActive, uint32(target))
	c.active = target
	c.log.Reset(m, newEpoch)
	c.epoch = newEpoch
	m.PopCat()
	m.NoteCheckpoint(kind)
}

// PreStore implements vm.PreStorer: force a checkpoint before the store
// when the log is full.
func (c *Chinchilla) PreStore(m *vm.Machine) {
	if !c.log.Full() {
		return
	}
	m.Count(vm.CtrForcedCheckpoints)
	c.Checkpoint(m, vm.CpTimer) // bypass the gap gate
}

// LoggedStore implements vm.Runtime: every instrumented store is logged —
// Chinchilla has no working-stack fast path, which is why its per-store
// overhead exceeds TICS's on stack-local traffic.
func (c *Chinchilla) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	c.log.Append(m, addr, size, m.Cost.UndoLogEntry)
	m.RawStore(addr, size, value)
	m.Count(vm.CtrStoresLogged)
}
