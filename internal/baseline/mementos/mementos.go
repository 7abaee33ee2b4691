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
		RuntimeBytes:   vm.CheckpointAreaBytes(per),
		StackBytes:     stackBytes,
		ExtraTextBytes: runtimeTextBytes,
		ExtraDataBytes: runtimeDataBytes + 2*per,
	}
}

const (
	initMagic   = 0x4D454D4F            // "MEMO"
	slotMetaLen = vm.CheckpointMeta + 4 // and a pad word
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

	// cp is the restore point: each slot holds the meta, then the
	// globals (if versioned) and the used stack.
	cp vm.CheckpointSlots
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
	}
	per := uint32(slotMetaLen + m.stackLen)
	if cfg.VersionGlobals {
		per += uint32(m.globalsLen)
	}
	m.cp = vm.NewCheckpointSlots(img.RuntimeBase, initMagic, int(per))
	if need := m.cp.End() - img.RuntimeBase; need > img.RuntimeLen {
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
	return &c
}

// Boot implements vm.Runtime.
func (b *Mementos) Boot(m *vm.Machine, cold bool) {
	if !b.cp.Boot(m, cold) {
		b.checkpoint(m, vm.CpManual) // bypass the voltage gate
		return
	}
	cur := b.cp.Restore(m) + slotMetaLen
	sp := b.cp.SavedSP(m)
	if b.cfg.VersionGlobals {
		m.CopyCharged(b.globalsBase, cur, b.globalsLen, 1)
		cur += uint32(b.globalsLen)
	}
	m.CopyCharged(sp, cur, int(b.img.StackBase+b.img.StackLen-sp), 1)
	b.cp.Restored(m, sp)
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
			m.Count(vm.CtrSkippedTriggers)
			return
		}
	}
	b.checkpoint(m, kind)
}

// checkpoint takes the checkpoint the gate let through.
func (b *Mementos) checkpoint(m *vm.Machine, kind vm.CpKind) {
	used := int(b.img.StackBase + b.img.StackLen - m.Regs.SP)
	captured := slotMetaLen + used
	if b.cfg.VersionGlobals {
		captured += b.globalsLen
	}
	// 6 word charges for 5 meta words: every digest pins the quirk.
	cur := b.cp.Begin(m, kind, captured, 6) + slotMetaLen
	if b.cfg.VersionGlobals {
		m.CopyCharged(cur, b.globalsBase, b.globalsLen, 2)
		cur += uint32(b.globalsLen)
	}
	m.CopyCharged(cur, m.Regs.SP, used, 2)
	b.cp.Commit(m, 1)
	b.cp.Done(m, kind)
}

// LoggedStore implements vm.Runtime: raw stores — consistency comes from
// the full-state checkpoint (or fails to, when VersionGlobals is off).
func (b *Mementos) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	m.RawStore(addr, size, value)
}
