// Package mementos implements the naive checkpointing baseline the paper
// compares against (§5.3: "a naïve checkpoint-based system that logs the
// complete stack and all global variables, which closely resembles what
// MementOS does"). Checkpoints fire at compiler-inserted trigger points
// (loop back-edges and call sites, via instrument.ForMementos), optionally
// gated by a voltage proxy, and copy the registers, the *entire* used
// stack and *all* globals into a double-buffered area — correct, but with
// a checkpoint cost that grows with program state, which is exactly the
// starvation risk TICS bounds away.
//
// The VersionGlobals=false configuration reproduces the write-after-read
// memory inconsistency of Figure 3(a): globals are left out of the
// checkpoint, so non-volatile writes replayed after a restore double-apply.
package mementos

import (
	"fmt"

	"repro/internal/obs"

	"repro/internal/link"
	"repro/internal/vm"
)

// Config tunes the baseline.
type Config struct {
	// VoltageThresholdCycles gates trigger-point checkpoints: a checkpoint
	// is taken only when fewer than this many cycles remain in the power
	// window (the Mementos voltage check). Zero means "always checkpoint
	// at triggers".
	VoltageThresholdCycles int64
	// VersionGlobals includes all globals in the checkpoint (the correct,
	// expensive configuration). Disabling it demonstrates WAR violations.
	VersionGlobals bool
}

// DefaultConfig returns the correct-but-naive configuration.
func DefaultConfig() Config { return Config{VersionGlobals: true} }

// Modeled runtime footprint for Table 3-style accounting.
const (
	runtimeTextBytes = 1400
	runtimeDataBytes = 64
)

// Spec returns the linker spec. The runtime area must hold two full copies
// of the stack and (if versioned) the globals, which is why the paper calls
// the memory overhead of such systems high.
func Spec(cfg Config, globalsBytes, stackBytes int) link.RuntimeSpec {
	per := 32 + stackBytes
	if cfg.VersionGlobals {
		per += globalsBytes
	}
	return link.RuntimeSpec{
		Name:           "mementos",
		RuntimeBytes:   16 + 2*per,
		StackBytes:     stackBytes,
		ExtraTextBytes: runtimeTextBytes,
		ExtraDataBytes: runtimeDataBytes + 2*per,
	}
}

const (
	initMagic   = 0x4D454D4F // "MEMO"
	slotMetaLen = 6 * 4      // pc, sp, fp, rv, cpDisabled, pad
)

// Mementos is the runtime. It keeps every optional vm hook at its default:
// conventional frames, call-like interrupts, and no handling of mid-block
// expirations (Table 5: timely execution unsupported).
type Mementos struct {
	cfg Config
	img *link.Image

	globalsBase uint32
	globalsLen  int
	stackLen    int

	addrMagic  uint32
	addrActive uint32
	addrSlot   [2]uint32

	active int
	reg    *obs.Registry
}

var _ vm.Runtime = (*Mementos)(nil)

// New builds the runtime for an image linked with Spec.
func New(img *link.Image, cfg Config) (*Mementos, error) {
	m := &Mementos{
		cfg:         cfg,
		img:         img,
		globalsBase: img.GlobalsBase,
		globalsLen:  int(img.StackBase - img.GlobalsBase),
		stackLen:    int(img.StackLen),
		reg:         obs.NewRegistry(),
	}
	per := uint32(slotMetaLen + m.stackLen)
	if cfg.VersionGlobals {
		per += uint32(m.globalsLen)
	}
	a := img.RuntimeBase
	m.addrMagic = a
	m.addrActive = a + 4
	m.addrSlot[0] = a + 16
	m.addrSlot[1] = a + 16 + per
	if need := 16 + 2*per; need > img.RuntimeLen {
		return nil, fmt.Errorf("mementos: runtime area too small: need %d B, have %d B (link with mementos.Spec)",
			need, img.RuntimeLen)
	}
	return m, nil
}

// Name implements vm.Runtime.
func (b *Mementos) Name() string { return "mementos" }

// Clone implements vm.Runtime.
func (b *Mementos) Clone() vm.Runtime {
	c := *b
	c.reg = b.reg.Clone()
	return &c
}

// Stats implements vm.Runtime. The returned map is a defensive snapshot:
// mutating it cannot corrupt the live counters.
func (b *Mementos) Stats() map[string]int64 { return b.reg.CounterSnapshot() }

// Boot implements vm.Runtime.
func (b *Mementos) Boot(m *vm.Machine, cold bool) {
	if cold || m.Mem.ReadWord(b.addrMagic) != initMagic {
		m.Spend(m.Cost.RestoreBase)
		m.Regs = vm.Registers{
			PC: b.img.EntryPC,
			SP: b.img.StackBase + b.img.StackLen,
			FP: b.img.StackBase + b.img.StackLen,
		}
		b.Checkpoint(m, vm.CpManual)
		m.Spend(m.Cost.NVWritePerWord)
		m.Mem.WriteWord(b.addrMagic, initMagic)
		return
	}
	b.restore(m)
}

func (b *Mementos) restore(m *vm.Machine) {
	m.Spend(m.Cost.RestoreBase)
	b.active = int(m.Mem.ReadWord(b.addrActive) & 1)
	slot := b.addrSlot[b.active]
	sp := m.Mem.ReadWord(slot + 4)
	cur := slot + slotMetaLen
	if b.cfg.VersionGlobals {
		m.CopyCharged(b.globalsBase, cur, b.globalsLen, 1)
		cur += uint32(b.globalsLen)
	}
	used := int(b.img.StackBase + b.img.StackLen - sp)
	m.CopyCharged(sp, cur, used, 1)
	m.Regs = vm.Registers{
		PC: m.Mem.ReadWord(slot + 0),
		SP: sp,
		FP: m.Mem.ReadWord(slot + 8),
		RV: m.Mem.ReadWord(slot + 12),
	}
	m.CpDisable = int(m.Mem.ReadWord(slot + 16))
	m.NoteRestore()
	b.reg.Inc("restores")
}

// Checkpoint implements vm.Runtime: the full-state double-buffered commit.
// Trigger checkpoints (the instrumented Chkpt opcodes) respect the voltage
// gate; timer checkpoints always run.
func (b *Mementos) Checkpoint(m *vm.Machine, kind vm.CpKind) {
	if kind == vm.CpManual && b.cfg.VoltageThresholdCycles > 0 {
		// The Mementos voltage check, with hysteresis: checkpoint at a
		// trigger only once the supply is low, and at most once per
		// discharge slope (a fresh checkpoint means the capacitor reading
		// has not meaningfully dropped since).
		if m.Remaining() > b.cfg.VoltageThresholdCycles ||
			m.SinceCheckpoint() < b.cfg.VoltageThresholdCycles {
			b.reg.Inc("skipped-triggers")
			return
		}
	}
	captured := slotMetaLen + int(b.img.StackBase+b.img.StackLen-m.Regs.SP)
	if b.cfg.VersionGlobals {
		captured += b.globalsLen
	}
	m.EmitEvent(obs.EvCheckpointBegin, int64(kind), int64(captured))
	m.PushCat(obs.CatCheckpoint)
	m.Spend(m.Cost.CheckpointBase)
	target := 1 - b.active
	slot := b.addrSlot[target]
	m.Spend(6 * m.Cost.NVWritePerWord)
	m.Mem.WriteWord(slot+0, m.Regs.PC)
	m.Mem.WriteWord(slot+4, m.Regs.SP)
	m.Mem.WriteWord(slot+8, m.Regs.FP)
	m.Mem.WriteWord(slot+12, m.Regs.RV)
	m.Mem.WriteWord(slot+16, uint32(m.CpDisable))
	cur := slot + slotMetaLen
	if b.cfg.VersionGlobals {
		m.CopyCharged(cur, b.globalsBase, b.globalsLen, 2)
		cur += uint32(b.globalsLen)
	}
	used := int(b.img.StackBase + b.img.StackLen - m.Regs.SP)
	m.CopyCharged(cur, m.Regs.SP, used, 2)
	m.Spend(m.Cost.NVWritePerWord)
	m.Mem.WriteWord(b.addrActive, uint32(target))
	b.active = target
	m.PopCat()
	m.NoteCheckpoint(kind)
	b.reg.Inc("checkpoints")
}

// LoggedStore implements vm.Runtime: raw stores — consistency comes from
// the full-state checkpoint (or fails to, when VersionGlobals is off).
func (b *Mementos) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	m.RawStore(addr, size, value)
}
