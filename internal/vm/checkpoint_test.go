package vm_test

import (
	"bytes"
	"testing"

	tics "repro"
	"repro/internal/vm"
)

// cpRig drives a CheckpointSlots directly: its payload is the global
// array g, checkpointed with the Begin/Commit/Done protocol and restored
// with Restore/Restored, as a runtime would.
type cpRig struct {
	m      *vm.Machine
	cp     vm.CheckpointSlots
	g      uint32 // payload address
	lo, hi uint32 // the runtime area
}

const (
	cpMagic   = 0x54455354 // "TEST"
	cpPayload = 16
	cpBig     = 1 << 40
)

func newCPRig(t *testing.T) *cpRig {
	t.Helper()
	img, err := tics.Build(`
int g[4];
int main() { g[0] = 1; return 0; }
`, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img.Image})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := img.GlobalAddr("g")
	if !ok {
		t.Fatal("no global g")
	}
	r := &cpRig{m: m, g: g, lo: img.RuntimeBase, hi: img.RuntimeBase + img.RuntimeLen,
		cp: vm.NewCheckpointSlots(img.RuntimeBase, cpMagic, vm.CheckpointMeta+cpPayload)}
	if r.cp.End() > r.hi {
		t.Fatalf("slots end at %#x, past the runtime area's %#x", r.cp.End(), r.hi)
	}
	return r
}

// cpState is what a checkpoint captures and a restore brings back.
type cpState struct {
	regs      vm.Registers
	cpDisable int
	payload   string
}

func (r *cpRig) state() cpState {
	return cpState{r.m.Regs, r.m.CpDisable, string(r.m.Mem.ReadBytes(r.g, cpPayload))}
}

func (r *cpRig) set(s cpState) {
	r.m.Regs, r.m.CpDisable = s.regs, s.cpDisable
	r.m.Mem.WriteBytes(r.g, []byte(s.payload))
}

func (r *cpRig) checkpoint() {
	slot := r.cp.Begin(r.m, vm.CpManual, vm.CheckpointMeta+cpPayload, 5)
	r.m.CopyCharged(slot+vm.CheckpointMeta, r.g, cpPayload, 2)
	r.cp.Commit(r.m, 1)
	r.cp.Done(r.m, vm.CpManual)
}

// boot is a runtime's Boot: restore the committed checkpoint, or start
// at the entry and take the first checkpoint. It reports which.
func (r *cpRig) boot(cold bool) (restored bool) {
	if !r.cp.Boot(r.m, cold) {
		r.checkpoint()
		return false
	}
	slot := r.cp.Restore(r.m)
	r.m.CopyCharged(r.g, slot+vm.CheckpointMeta, cpPayload, 1)
	r.cp.Restored(r.m, r.cp.SavedSP(r.m))
	return true
}

// nv saves the non-volatile state a failure leaves: the runtime area, the
// payload and the slots' volatile mirror.
type nv struct {
	area, payload []byte
	cp            vm.CheckpointSlots
}

func (r *cpRig) save() nv {
	return nv{r.m.Mem.ReadBytes(r.lo, int(r.hi-r.lo)), r.m.Mem.ReadBytes(r.g, cpPayload), r.cp}
}

func (r *cpRig) load(s nv) {
	r.m.Mem.WriteBytes(r.lo, s.area)
	r.m.Mem.WriteBytes(r.g, s.payload)
	r.cp = s.cp
}

// run runs fn in a window of k cycles and reports whether power ran out,
// clearing the volatile registers then as the machine does.
func (r *cpRig) run(k int64, fn func()) bool {
	failed := r.m.Powered(k, fn)
	if failed {
		r.m.Regs, r.m.CpDisable = vm.Registers{}, 0
	}
	return failed
}

// TestCheckpointSlotsTornCheckpoint cuts power at every cycle from Begin
// through Done, then reboots: the restored registers, CpDisable and
// payload are the old checkpoint's or the new one's, never a mix, and the
// new one's exactly when the failure came after the flip.
func TestCheckpointSlotsTornCheckpoint(t *testing.T) {
	r := newCPRig(t)
	oldS := cpState{vm.Registers{PC: 0x111, SP: 0x222, FP: 0x333, RV: 0x444}, 1, "old-old-old-old!"}
	newS := cpState{vm.Registers{PC: 0x555, SP: 0x666, FP: 0x777, RV: 0x888}, 0, "new-new-new-new!"}
	// Cold boot, then commit oldS twice so both slots hold a checkpoint.
	r.run(cpBig, func() {
		r.boot(true)
		r.set(oldS)
		r.checkpoint()
		r.checkpoint()
	})
	base := r.save()
	start := r.m.Cycles()
	r.set(newS)
	r.run(cpBig, r.checkpoint)
	full := r.m.Cycles() - start

	sawNew := false
	for k := int64(0); k <= full; k++ {
		r.load(base)
		r.set(newS)
		failed := r.run(k, r.checkpoint)
		if failed == (k == full) {
			t.Fatalf("window %d of %d: failed=%v", k, full, failed)
		}
		r.set(cpState{payload: "scribbled-over!!"})
		if r.run(cpBig, func() { r.boot(false) }) {
			t.Fatalf("window %d: the restore failed", k)
		}
		switch got := r.state(); {
		case got == newS:
			sawNew = true
		case got == oldS && !sawNew && k < full:
		default:
			t.Fatalf("power cut after %d of %d checkpoint cycles restored %+v, want the old %+v or the new %+v (new from the flip on)",
				k, full, got, oldS, newS)
		}
	}
}

// TestCheckpointSlotsColdBootMagic cuts power at every cycle of a cold
// boot: a reboot resumes only once the first checkpoint has committed, and
// then restores exactly it. A cold boot whose first checkpoint never runs
// leaves the device cold.
func TestCheckpointSlotsColdBootMagic(t *testing.T) {
	r := newCPRig(t)
	pristine := r.save()
	r.set(cpState{payload: "first-payload..."})
	first := r.save()
	start := r.m.Cycles()
	r.run(cpBig, func() { r.boot(true) })
	full := r.m.Cycles() - start
	want := r.state()
	if want.regs != vm.EntryRegisters(r.m.Img) {
		t.Fatalf("cold boot registers %+v, want the entry's", want.regs)
	}

	for k := int64(0); k <= full; k++ {
		r.load(first)
		if failed := r.run(k, func() { r.boot(true) }); failed == (k == full) {
			t.Fatalf("window %d of %d: failed=%v", k, full, failed)
		}
		r.set(cpState{payload: "scribbled-over!!"})
		var restored bool
		if r.run(cpBig, func() { restored = r.boot(false) }) {
			t.Fatalf("window %d: the reboot failed", k)
		}
		if k == full && !restored {
			t.Fatal("a completed cold boot left no restore point")
		}
		if got := r.state(); restored && got != want {
			t.Fatalf("power cut after %d of %d cold-boot cycles: the magic marks %+v, want the first checkpoint %+v",
				k, full, got, want)
		}
	}

	r.load(pristine)
	r.run(cpBig, func() { r.cp.Boot(r.m, true) }) // a gate skipped the first checkpoint
	if r.run(cpBig, func() {
		if r.cp.Boot(r.m, false) {
			t.Fatal("a cold boot without a checkpoint set the magic")
		}
	}) {
		t.Fatal("boot failed in an unbounded window")
	}
	if got := r.m.Mem.ReadBytes(r.lo, int(r.hi-r.lo)); !bytes.Equal(got, pristine.area) {
		t.Fatal("a cold boot without a checkpoint wrote the runtime area")
	}
}
