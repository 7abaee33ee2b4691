// Package core implements the TICS runtime — the paper's primary
// contribution. It combines:
//
//   - Stack segmentation: the call stack lives in non-volatile memory as a
//     fixed array of fixed-size segments; the program only ever touches the
//     top ("working") segment, and only that segment is checkpointed,
//     bounding checkpoint/restore time (paper §3.1.1).
//   - Data versioning: instrumented stores whose target lies outside the
//     working segment (globals, pointer writes into deeper segments) are
//     write-ahead undo-logged; the log is cleared by a successful
//     checkpoint and rolled back on reboot (paper §3.1.2).
//   - Double-buffered checkpoints with an atomic commit: registers plus
//     the working segment are written to the inactive slot, then a single
//     word flip makes it the restore point (paper §4; vm.CheckpointSlots,
//     the format the checkpointing baselines share).
//   - The time-annotation runtime: shadow timestamps, atomic @= blocks,
//     and the restore-to-block-entry machinery behind @expires/catch
//     (paper §3.2).
//
// All persistent runtime state lives inside the simulated non-volatile
// memory, so a power failure at *any* cycle — including mid-checkpoint or
// mid-log-append — exercises the real recovery protocol.
package core

import (
	"fmt"
	"slices"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Config sizes the TICS runtime.
type Config struct {
	// SegmentBytes is the working-stack segment size (the paper's S1/S2
	// axis). It must be at least Image.MinSegmentBytes() and a multiple of
	// 4. Zero selects the minimum.
	SegmentBytes int
	// StackBytes is the total segment-array size (default 2048, the
	// paper's configuration).
	StackBytes int
	// UndoCapBytes is the undo-log capacity (default 2048, as in the
	// paper; a full log forces a checkpoint).
	UndoCapBytes int
	// DifferentialCheckpoints copies only the *used* part of the working
	// segment (from SP to the segment top) instead of the whole segment.
	// This is the differential-checkpoint idea the paper contrasts with
	// ([3] in the paper): cheaper on shallow stacks, but the checkpoint
	// time is no longer a fixed worst-case bound. Off by default — the
	// fixed bound is TICS's design point. See the ablation benchmark.
	DifferentialCheckpoints bool
	// UndoBlockBytes selects the undo-log granularity: 0 or 4 logs the
	// written word (the paper's design); a larger power of two logs the
	// containing block once per checkpoint epoch, so repeated writes to a
	// hot global skip the logging cost after the first. Trades bigger
	// entries for fewer of them — see the ablation benchmark.
	UndoBlockBytes int
}

func (c Config) withDefaults() Config {
	if c.StackBytes == 0 {
		c.StackBytes = 2048
	}
	if c.UndoCapBytes == 0 {
		c.UndoCapBytes = 2048
	}
	if c.UndoBlockBytes == 0 {
		c.UndoBlockBytes = 4
	}
	return c
}

// Modeled footprint of the runtime library itself, used only for the
// Table 3 memory accounting (the runtime executes host-side here).
const (
	runtimeTextBytes = 2800
	runtimeDataBytes = 96
)

const (
	initMagic = 0x54494353 // "TICS"
	// TICS's meta words after the register meta.
	metaWorking = vm.CheckpointMeta
	metaEpoch   = metaWorking + 4
	metaUsed    = metaEpoch + 4 // bytes of the segment the checkpoint captured
	slotMetaLen = metaUsed + 4
	segCtlLen   = 8 // growFrameFP, returnSP
)

// Spec returns the linker spec for a TICS build: the runtime-private area
// holds the two checkpoint slots, the undo log, and the per-segment
// control blocks.
func Spec(cfg Config, minSegment int) link.RuntimeSpec {
	cfg = cfg.withDefaults()
	seg := cfg.SegmentBytes
	if seg < minSegment {
		seg = minSegment
	}
	seg = (seg + 3) &^ 3
	nseg := cfg.StackBytes / seg
	if nseg < 1 {
		nseg = 1
	}
	rtBytes := vm.CheckpointAreaBytes(slotMetaLen+seg) + cfg.UndoCapBytes + segCtlLen*nseg
	return link.RuntimeSpec{
		Name:           "tics",
		RuntimeBytes:   rtBytes,
		StackBytes:     nseg * seg,
		ExtraTextBytes: runtimeTextBytes,
		ExtraDataBytes: runtimeDataBytes + 2*(slotMetaLen+seg),
	}
}

// TICS is the runtime. Volatile fields mirror non-volatile state for
// speed; Boot re-derives every one of them from memory, so they are lost
// safely at power failures.
type TICS struct {
	cfg Config
	img *link.Image

	segBytes int
	numSegs  int

	// cp is the restore point: each slot holds the meta, then the working
	// segment copy.
	cp         vm.CheckpointSlots
	addrSegCtl uint32

	// log is the undo log, tagged with the checkpoint epoch.
	log        vm.UndoLog
	blockBytes int

	// Volatile mirrors of the active slot's meta (re-read by Boot; cp
	// mirrors which slot is active).
	working int
	epoch   uint32
	// loggedAt dedups block-granularity log entries within one
	// checkpoint epoch: block i of the program-writable region, counted
	// from blockBase, is logged iff loggedAt[i] == logGen. Volatile: a
	// failure empties the log (rollback), a checkpoint clears it, and Boot
	// starts it fresh — all in sync, each one increment of logGen.
	loggedAt  []uint32
	logGen    uint32
	blockBase uint32

	// skipUndoAt, when positive, is a countdown to an injected fault: the
	// N-th upcoming undo append is silently skipped (the program's store
	// still executes, but unlogged and without an undo-append event). Only
	// set by InjectUndoSkip in tests; see audit fault-detection coverage.
	skipUndoAt int
}

var (
	_ vm.Runtime     = (*TICS)(nil)
	_ vm.Framer      = (*TICS)(nil)
	_ vm.PreStorer   = (*TICS)(nil)
	_ vm.Expirer     = (*TICS)(nil)
	_ vm.Interrupter = (*TICS)(nil)
)

// InjectUndoSkip arms a fault-injection hook for tests: the n-th
// subsequent store that would append an undo-log entry executes without
// logging it, silently breaking undo-log completeness (and, after the
// next rollback, restore exactness). The trace auditor must catch this.
func (t *TICS) InjectUndoSkip(n int) { t.skipUndoAt = n }

// New builds a TICS runtime for an image linked with Spec(cfg, ...).
func New(img *link.Image, cfg Config) (*TICS, error) {
	cfg = cfg.withDefaults()
	minSeg := img.MinSegmentBytes()
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = minSeg
	}
	cfg.SegmentBytes = (cfg.SegmentBytes + 3) &^ 3
	if cfg.SegmentBytes < minSeg {
		return nil, fmt.Errorf("core: segment size %d B is below the program minimum %d B (largest function frame)",
			cfg.SegmentBytes, minSeg)
	}
	switch cfg.UndoBlockBytes {
	case 4, 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("core: undo block size %d B must be a power of two in [4,64]", cfg.UndoBlockBytes)
	}
	t := &TICS{
		cfg:        cfg,
		img:        img,
		segBytes:   cfg.SegmentBytes,
		numSegs:    int(img.StackLen) / cfg.SegmentBytes,
		blockBytes: cfg.UndoBlockBytes,
		logGen:     1,
	}
	if t.blockBytes > 4 {
		t.blockBase = img.GlobalsBase &^ uint32(t.blockBytes-1)
		end := img.StackBase + img.StackLen
		t.loggedAt = make([]uint32, (end-t.blockBase+uint32(t.blockBytes)-1)/uint32(t.blockBytes))
	}
	if t.numSegs < 1 {
		return nil, fmt.Errorf("core: stack region of %d B holds no %d B segment", img.StackLen, cfg.SegmentBytes)
	}
	// Lay out the runtime area.
	t.cp = vm.NewCheckpointSlots(img.RuntimeBase, initMagic, slotMetaLen+t.segBytes)
	t.log = vm.NewUndoLog(t.cp.Aux(), t.cp.End(), cfg.UndoCapBytes, cfg.UndoBlockBytes)
	t.addrSegCtl = t.log.End()
	if a := t.addrSegCtl + uint32(segCtlLen*t.numSegs); a > img.RuntimeBase+img.RuntimeLen {
		return nil, fmt.Errorf("core: runtime area too small: need %d B, have %d B (link with core.Spec)",
			a-img.RuntimeBase, img.RuntimeLen)
	}
	return t, nil
}

// SegmentBytes returns the configured working-stack segment size.
func (t *TICS) SegmentBytes() int { return t.segBytes }

// NumSegments returns the segment-array length.
func (t *TICS) NumSegments() int { return t.numSegs }

// Name implements vm.Runtime.
func (t *TICS) Name() string { return "tics" }

// Clone implements vm.Runtime.
func (t *TICS) Clone() vm.Runtime {
	c := *t
	c.loggedAt = slices.Clone(t.loggedAt)
	return &c
}

// segTop returns one past the highest address of segment i (the stack
// grows downward through the segment).
func (t *TICS) segTop(i int) uint32 {
	return t.img.StackBase + t.img.StackLen - uint32(i*t.segBytes)
}

// segBase returns the lowest address of segment i.
func (t *TICS) segBase(i int) uint32 { return t.segTop(i) - uint32(t.segBytes) }

func (t *TICS) inWorking(addr uint32, size int) bool {
	return addr >= t.segBase(t.working) && addr+uint32(size) <= t.segTop(t.working)
}

// ---- Boot / restore ----

// Boot implements vm.Runtime. On a cold boot (or if a failure killed the
// very first checkpoint) it initializes the runtime area and takes the
// initial checkpoint; otherwise it rolls back the undo log, restores the
// checkpointed working segment and reloads the registers.
func (t *TICS) Boot(m *vm.Machine, cold bool) {
	if !t.cp.Boot(m, cold) {
		t.cp.Reset(m)
		t.log.Reset(m, 0)
		t.epoch, t.working = 0, 0
		t.Checkpoint(m, vm.CpManual)
		return
	}
	t.restore(m)
}

func (t *TICS) restore(m *vm.Machine) {
	slot := t.cp.Restore(m)
	t.epoch = m.Mem.ReadWord(slot + metaEpoch)
	t.log.Recover(m, t.epoch)
	// Restore the checkpointed working segment (only the part the
	// checkpoint captured; a differential checkpoint saved just the used
	// tail, and nothing below the saved SP is live).
	t.working = int(m.Mem.ReadWord(slot + metaWorking))
	used := int(m.Mem.ReadWord(slot + metaUsed))
	if used <= 0 || used > t.segBytes {
		used = t.segBytes
	}
	off := uint32(t.segBytes-used) &^ 3
	m.CopyCharged(t.segBase(t.working)+off, slot+slotMetaLen+off, t.segBytes-int(off), 1)
	t.resetLogged()
	t.cp.Restored(m, t.cp.SavedSP(m))
}

// resetLogged clears the volatile block-dedup set (in lockstep with the
// undo log itself).
func (t *TICS) resetLogged() {
	if t.logGen++; t.logGen == 0 { // wrapped: clear so no stamp aliases the new generation
		clear(t.loggedAt)
		t.logGen = 1
	}
}

// loggedBlock returns the dedup slot of the block at addr, or nil for an
// address outside the program-writable region (whose store faults).
func (t *TICS) loggedBlock(addr uint32) *uint32 {
	if i := uint(addr-t.blockBase) / uint(t.blockBytes); i < uint(len(t.loggedAt)) {
		return &t.loggedAt[i]
	}
	return nil
}

// ---- Checkpoint ----

// Checkpoint implements vm.Runtime: a two-phase commit of the register
// file and the working segment into the inactive slot, finished by an
// atomic flip of the active-slot word, after which the undo log is reset
// under the new epoch.
func (t *TICS) Checkpoint(m *vm.Machine, kind vm.CpKind) {
	if kind == vm.CpTimer && m.CpDisabled() {
		return
	}
	// How much of the segment to capture: everything (fixed worst-case
	// bound, the paper's design) or just the used tail above SP
	// (differential checkpoints — cheaper, but variable).
	used := t.segBytes
	if t.cfg.DifferentialCheckpoints {
		top := t.segTop(t.working)
		if m.Regs.SP <= top && m.Regs.SP >= t.segBase(t.working) {
			used = int(top - m.Regs.SP)
		}
		if used == 0 {
			used = 4
		}
	}
	t.log.ObserveLen(m)
	// 7 word charges for 8 meta words: every digest pins the quirk.
	slot := t.cp.Begin(m, kind, slotMetaLen+used, 7)
	newEpoch := t.epoch + 1
	m.Mem.WriteWord(slot+metaWorking, uint32(t.working))
	m.Mem.WriteWord(slot+metaEpoch, newEpoch)
	m.Mem.WriteWord(slot+metaUsed, uint32(used))
	// Copy the captured part (charged as the two-phase copy).
	off := uint32(t.segBytes-used) &^ 3
	m.CopyCharged(slot+slotMetaLen+off, t.segBase(t.working)+off, t.segBytes-int(off), 2)
	t.cp.Commit(m, 2) // the flip and the undo-log clear
	t.log.Reset(m, newEpoch)
	t.epoch = newEpoch
	t.resetLogged()
	t.cp.Done(m, kind)
}

// ---- Memory consistency management ----

// PreStore implements vm.PreStorer: a full undo log forces a checkpoint
// *before* the store instruction executes, so the checkpoint's PC
// re-executes the whole store on restore and the cleared log has room for
// its entry (paper §3.1.2: "TICS forces a checkpoint when the undo log is
// full to eliminate the overflow and ensure forward progress").
func (t *TICS) PreStore(m *vm.Machine) {
	if !t.log.Full() {
		return
	}
	if m.CpDisabled() {
		m.Fault("undo log exhausted inside an atomic time-annotation block")
	}
	m.Count(vm.CtrForcedCheckpoints)
	t.Checkpoint(m, vm.CpManual)
}

// LoggedStore implements vm.Runtime: the paper's instrumented store. A
// store inside the working segment needs no versioning (the segment
// checkpoint covers it); anything else is write-ahead undo-logged.
func (t *TICS) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	m.Spend(m.Cost.PtrCheck)
	if t.inWorking(addr, size) {
		m.RawStore(addr, size, value)
		m.Count(vm.CtrStoresDirect)
		return
	}
	logAddr, logSize := addr, size
	var logged *uint32
	if t.blockBytes > 4 {
		// Block granularity: log the containing block once per epoch;
		// later writes to the same block skip straight to the store.
		logAddr, logSize = addr&^uint32(t.blockBytes-1), t.blockBytes
		if logged = t.loggedBlock(logAddr); logged != nil && *logged == t.logGen {
			m.RawStore(addr, size, value)
			m.Count(vm.CtrStoresBlockHit)
			return
		}
	}
	if t.skipUndoAt > 0 {
		if t.skipUndoAt--; t.skipUndoAt == 0 {
			m.RawStore(addr, size, value)
			return
		}
	}
	t.log.Append(m, logAddr, logSize, m.Cost.UndoLogEntry)
	if logged != nil {
		*logged = t.logGen
	}
	m.RawStore(addr, size, value)
	m.Count(vm.CtrStoresLogged)
}

// ---- Stack segmentation ----

// Enter implements vm.Framer. The machine has already advanced PC past
// the Enter instruction, so a checkpoint taken here resumes with the frame
// set up.
func (t *TICS) Enter(m *vm.Machine, fn int) {
	meta := m.Func(fn)
	if m.Regs.SP < uint32(meta.FrameBytes) || m.Regs.SP-uint32(meta.FrameBytes) < t.segBase(t.working) {
		// Stack grow: switch the working stack to the next segment,
		// moving the return PC and the on-stack arguments with it.
		if t.working+1 >= t.numSegs {
			m.Fault("segment array exhausted entering %s (%d segments of %d B)", meta.Name, t.numSegs, t.segBytes)
		}
		m.EmitEvent(obs.EvStackGrow, int64(t.working+1), int64(meta.EntryCopyBytes))
		m.PushCat(obs.CatCheckpoint)
		m.Spend(m.Cost.StackGrow)
		oldSP := m.Regs.SP
		newSP := t.segTop(t.working+1) - uint32(meta.EntryCopyBytes)
		m.CopyCharged(newSP, oldSP, meta.EntryCopyBytes, 1)
		t.working++
		ctl := t.addrSegCtl + uint32(t.working*segCtlLen)
		m.Spend(2 * m.Cost.NVWritePerWord)
		m.Mem.WriteWord(ctl+4, oldSP) // caller SP at the call site
		m.Regs.SP = newSP
		m.Push(m.Regs.FP)
		m.Mem.WriteWord(ctl, m.Regs.SP) // grow-frame FP marker
		m.Regs.FP = m.Regs.SP
		m.Regs.SP -= uint32(meta.LocalBytes)
		m.PopCat()
		m.Count(vm.CtrStackGrows)
		// Inside an atomic time-annotation block the restore point must
		// stay at the block entry (paper §3.2.3: "computation starts from
		// the if statement after each power failure"), so the stack-change
		// checkpoint is suppressed; the block-entry checkpoint's segment
		// copy plus the undo log still cover every write for rollback.
		if m.CpDisabled() {
			m.Count(vm.CtrSuppressedGrowCps)
			return
		}
		t.Checkpoint(m, vm.CpStackGrow)
		return
	}
	m.Push(m.Regs.FP)
	m.Regs.FP = m.Regs.SP
	m.Regs.SP -= uint32(meta.LocalBytes)
}

// Leave implements vm.Framer: the epilogue, plus the stack shrink and the
// enforced checkpoint when the returning frame is the one that grew the
// working stack (paper Figure 7, steps 3–4).
func (t *TICS) Leave(m *vm.Machine) {
	growFP := uint32(0)
	if t.working > 0 {
		growFP = m.Mem.ReadWord(t.addrSegCtl + uint32(t.working*segCtlLen))
	}
	isGrowFrame := t.working > 0 && growFP == m.Regs.FP
	m.Regs.SP = m.Regs.FP
	m.Regs.FP = m.Pop()
	ret := m.Pop()
	if isGrowFrame {
		m.EmitEvent(obs.EvStackShrink, int64(t.working-1), 0)
		m.PushCat(obs.CatCheckpoint)
		m.Spend(m.Cost.StackShrink)
		callerSP := m.Mem.ReadWord(t.addrSegCtl + uint32(t.working*segCtlLen) + 4)
		t.working--
		m.Regs.SP = callerSP + 4 // the caller's stack with the return PC popped
		m.Regs.PC = ret
		m.PopCat()
		m.Count(vm.CtrStackShrinks)
		if m.CpDisabled() {
			m.Count(vm.CtrSuppressedShrinkCps)
			return
		}
		t.Checkpoint(m, vm.CpStackShrink)
		return
	}
	m.Regs.PC = ret
}

// ---- Timely execution ----

// OnExpiry implements vm.Expirer: the exception-based @expires/catch.
// Expiration restores the block-entry checkpoint (undo rollback + segment
// + registers); re-executing the ExpCatch check then branches into the
// catch handler because the data is now stale (paper §3.2.3).
func (t *TICS) OnExpiry(m *vm.Machine) {
	m.Count(vm.CtrExpiryRestores)
	t.restore(m)
}

// OnInterrupt implements vm.Interrupter (paper §4): "TICS disables (automatic)
// checkpoints before interrupt service routines". The transfer itself is
// call-like; a power failure before the ISR completes restores the
// pre-interrupt checkpoint, so the interrupt simply never happened.
func (t *TICS) OnInterrupt(m *vm.Machine, isrEntry uint32) {
	m.CpDisable++
	m.Push(m.Regs.PC)
	m.Regs.PC = isrEntry
	m.Count(vm.CtrInterrupts)
}

// OnInterruptReturn implements vm.Interrupter (paper §4): "places an implicit
// checkpoint right after the return-from-interrupt instruction", which
// commits the ISR's effects exactly once.
func (t *TICS) OnInterruptReturn(m *vm.Machine) {
	if m.CpDisable > 0 {
		m.CpDisable--
	}
	m.Count(vm.CtrISRCheckpoints)
	t.Checkpoint(m, vm.CpManual)
}
