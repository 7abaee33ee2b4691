package vm_test

import (
	"bytes"
	"testing"

	tics "repro"
	"repro/internal/energy"
	"repro/internal/vm"
)

// logOnly is a runtime that undo-logs every instrumented store and never
// commits, with no PreStore guard: the store that overflows its log
// reaches UndoLog.Append.
type logOnly struct {
	*vm.Plain
	log vm.UndoLog
}

func (r *logOnly) Boot(m *vm.Machine, cold bool) {
	r.log.Reset(m, 0)
	r.Plain.Boot(m, cold)
}

func (r *logOnly) Clone() vm.Runtime {
	return &logOnly{Plain: r.Plain.Clone().(*vm.Plain), log: r.log}
}

func (r *logOnly) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	r.log.Append(m, addr, size, energy.UndoLogEntry)
	m.RawStore(addr, size, value)
}

// TestUndoLogOverflowFaults: an append past Cap ends the run with the
// overflow fault before the entry or the store is written, so the bytes
// past the log (End) and the store's target keep their values.
func TestUndoLogOverflowFaults(t *testing.T) {
	img, err := tics.Build(`
int a;
int b;
int c;
int main() { a = 1; b = 2; c = 3; return 0; }
`, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	rt := &logOnly{Plain: vm.NewPlain(), log: vm.NewUndoLog(img.RuntimeBase, img.RuntimeBase+4, 2*12, 4)}
	if rt.log.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", rt.log.Cap())
	}
	m, err := vm.New(vm.Config{Image: img.Image, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = 0xC0FFEE11
	m.Mem.WriteWord(rt.log.End(), sentinel)
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || res.Fault.Error() != "undo log overflow" {
		t.Fatalf("want the undo log overflow fault, got %v / %+v", runErr, res)
	}
	if got := m.Mem.ReadWord(rt.log.End()); got != sentinel {
		t.Fatalf("word at End() = %#x, want the untouched sentinel %#x", got, uint32(sentinel))
	}
	if !rt.log.Full() || rt.log.Len() != 2 {
		t.Fatalf("log Len = %d (Full %v), want 2 committed entries", rt.log.Len(), rt.log.Full())
	}
	for name, want := range map[string]int32{"a": 1, "b": 2, "c": 0} {
		if got, _ := m.ReadGlobal(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestUndoLogRollbackSurvivesPowerFailure cuts power at every cycle of a
// rollback over a byte, a word and a block entry, then re-runs the
// rollback from the header the failure left behind: each time the data
// must come back byte for byte as it was before the appends.
func TestUndoLogRollbackSurvivesPowerFailure(t *testing.T) {
	img, err := tics.Build(`
char c;
int w;
int blk[4];
int main() { c = 1; w = 2; blk[0] = 3; return 0; }
`, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img.Image})
	if err != nil {
		t.Fatal(err)
	}
	addr := func(name string) uint32 {
		a, ok := img.GlobalAddr(name)
		if !ok {
			t.Fatalf("no global %s", name)
		}
		return a
	}
	cAddr, wAddr, blkAddr := addr("c"), addr("w"), addr("blk")
	lo, hi := img.GlobalsBase, img.StackBase
	m.Mem.WriteByteAt(cAddr, 0x5A)
	m.Mem.WriteWord(wAddr, 0x11223344)
	for i := uint32(0); i < 4; i++ {
		m.Mem.WriteWord(blkAddr+4*i, 0xA0A0A000+i)
	}
	pre := m.Mem.ReadBytes(lo, int(hi-lo))

	const big = 1 << 40
	log := vm.NewUndoLog(img.RuntimeBase, img.RuntimeBase+4, 3*(8+16), 16)
	if m.Powered(big, func() {
		log.Reset(m, 7)
		log.Append(m, cAddr, 1, energy.UndoLogEntry)
		m.Mem.WriteByteAt(cAddr, 0xFF)
		log.Append(m, wAddr, 4, energy.UndoLogEntry)
		m.Mem.WriteWord(wAddr, 0xDEADBEEF)
		log.Append(m, blkAddr, 16, energy.UndoLogEntry)
		for i := uint32(0); i < 4; i++ {
			m.Mem.WriteWord(blkAddr+4*i, 0xB0B0B000+i)
		}
	}) {
		t.Fatal("appends failed in an unbounded window")
	}
	post := m.Mem.ReadBytes(lo, int(hi-lo))
	if bytes.Equal(pre, post) {
		t.Fatal("stores changed nothing")
	}
	tag, n := log.Header(m)
	if tag != 7 || n != 3 {
		t.Fatalf("header = (tag %d, len %d), want (7, 3)", tag, n)
	}

	start := m.Cycles()
	m.Powered(big, func() { log.Rollback(m, n) })
	full := m.Cycles() - start
	if got := m.Mem.ReadBytes(lo, int(hi-lo)); !bytes.Equal(got, pre) {
		t.Fatal("an uninterrupted rollback did not restore the pre-append bytes")
	}

	for k := int64(0); k < full; k++ {
		m.Mem.WriteBytes(lo, post)
		if !m.Powered(k, func() { log.Rollback(m, n) }) {
			t.Fatalf("window %d < %d completed the rollback", k, full)
		}
		tag, n2 := log.Header(m)
		if tag != 7 || n2 != n {
			t.Fatalf("window %d: a failed rollback changed the header to (tag %d, len %d)", k, tag, n2)
		}
		if m.Powered(big, func() { log.Rollback(m, n2) }) {
			t.Fatalf("window %d: the re-run rollback failed", k)
		}
		if got := m.Mem.ReadBytes(lo, int(hi-lo)); !bytes.Equal(got, pre) {
			i := 0
			for got[i] == pre[i] {
				i++
			}
			t.Fatalf("power cut after %d of %d cycles: byte %#x = %#x after the re-run, want %#x",
				k, full, lo+uint32(i), got[i], pre[i])
		}
	}
}
