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
	"repro/internal/energy"
	"repro/internal/link"
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
	metaEpoch   = vm.CheckpointMeta
	slotMetaLen = metaEpoch + 4
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
		RuntimeBytes:   vm.CheckpointAreaBytes(slotMetaLen+cfg.StackBytes) + cfg.UndoCapBytes,
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

	// cp is the restore point: each slot holds the meta, then the used
	// stack.
	cp vm.CheckpointSlots
	// log is the write log, tagged with the checkpoint epoch.
	log vm.UndoLog

	epoch uint32
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
	c.cp = vm.NewCheckpointSlots(img.RuntimeBase, initMagic, slotMetaLen+c.stackLen)
	c.log = vm.NewUndoLog(c.cp.Aux(), c.cp.End(), cfg.UndoCapBytes, 4)
	if a := c.log.End(); a > img.RuntimeBase+img.RuntimeLen {
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
	if !c.cp.Boot(m, cold) {
		c.cp.Reset(m)
		c.log.Reset(m, 0)
		c.epoch = 0
		c.Checkpoint(m, vm.CpTimer) // bypass the gap gate
		return
	}
	slot := c.cp.Restore(m)
	c.epoch = m.Mem.ReadWord(slot + metaEpoch)
	c.log.Recover(m, c.epoch)
	sp := c.cp.SavedSP(m)
	m.CopyCharged(sp, slot+slotMetaLen, int(c.img.StackBase+c.img.StackLen-sp), 1)
	c.cp.Restored(m, sp)
}

// Checkpoint implements vm.Runtime: registers plus the (small) used stack,
// double-buffered; trigger checkpoints respect the skip heuristic.
func (c *Chinchilla) Checkpoint(m *vm.Machine, kind vm.CpKind) {
	if kind == vm.CpManual && m.SinceCheckpoint() < c.cfg.MinGapCycles {
		m.Count(vm.CtrSkippedTriggers)
		return
	}
	used := int(c.img.StackBase + c.img.StackLen - m.Regs.SP)
	c.log.ObserveLen(m)
	slot := c.cp.Begin(m, kind, slotMetaLen+used, 6)
	newEpoch := c.epoch + 1
	m.Mem.WriteWord(slot+metaEpoch, newEpoch)
	m.CopyCharged(slot+slotMetaLen, m.Regs.SP, used, 2)
	c.cp.Commit(m, 2) // the flip and the undo-log clear
	c.log.Reset(m, newEpoch)
	c.epoch = newEpoch
	c.cp.Done(m, kind)
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
	c.log.Append(m, addr, size, energy.UndoLogEntry)
	m.RawStore(addr, size, value)
	m.Count(vm.CtrStoresLogged)
}
