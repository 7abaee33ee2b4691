package audit_test

import (
	"reflect"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/audit"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/vm"
)

const tinySrc = `
int g0; int g1; int g2; int g3; int g4; int g5; int g6; int g7;
int main() { g0 = 1; out(0, g0); return 0; }
`

// sendSrc is tinySrc transmitting g0, a send site whose payload
// provenance is known.
const sendSrc = `
int g0; int g1; int g2; int g3; int g4; int g5; int g6; int g7;
int main() { g0 = 1; send(g0); return 0; }
`

// rig builds a tiny TICS machine with a recorder and an attached auditor,
// powered on so tests can drive events synthetically (emulating a buggy
// runtime) without running the program.
func rig(t *testing.T, opt audit.Options) (*vm.Machine, *audit.Auditor) {
	t.Helper()
	return rigFor(t, tinySrc, opt)
}

// rigFor is rig for the program src.
func rigFor(t *testing.T, src string, opt audit.Options) (*vm.Machine, *audit.Auditor) {
	t.Helper()
	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:    power.Continuous{},
		Recorder: obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := audit.Attach(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.PowerOn(1 << 40)
	return m, a
}

func TestAttachRequiresRecorder(t *testing.T) {
	img, err := tics.Build(tinySrc, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{Power: power.Continuous{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit.Attach(m, audit.Options{}); err == nil {
		t.Fatal("Attach without a recorder must fail")
	}
}

func TestCleanRunHasNoViolations(t *testing.T) {
	img, err := tics.Build(tinySrc, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:    &power.FailEvery{Cycles: 700, OffMs: 5},
		Recorder: obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := audit.Attach(m, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("clean TICS run flagged: %v", err)
	}
	if !strings.Contains(a.Summary(), "audit: ok") {
		t.Fatalf("summary: %s", a.Summary())
	}
}

func TestRollbackExactnessViolationCarriesAddressAndWriter(t *testing.T) {
	m, a := rig(t, audit.Options{})
	base, _ := a.Region()

	// A commit snapshots the shadow; an unlogged store then dirties the
	// data region; a restore that does NOT roll it back must be flagged.
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0) // seq 1: shadow taken here
	m.Mem.WriteByteAt(base+2, 0xAB)
	m.OnStore(base+2, 1, 0xAB, 0) // program-order store, no undo-append
	m.EmitEvent(obs.EvRestore, 0, 0)

	vs := a.Violations()
	var rollback *audit.Violation
	for i := range vs {
		if vs[i].Check == audit.CheckRollback {
			rollback = &vs[i]
		}
	}
	if rollback == nil {
		t.Fatalf("no rollback violation in %v", vs)
	}
	if rollback.Addr != base+2 || rollback.Got != 0xAB {
		t.Fatalf("violation anchor wrong: %+v", rollback)
	}
	if rollback.WriterSeq < 0 || !strings.Contains(rollback.Detail, "last store") {
		t.Fatalf("missing causative-write attribution: %+v", rollback)
	}
	// The unlogged store itself also breaks undo completeness (TICS is an
	// undo-logging runtime).
	if vs[0].Check != audit.CheckUndoLog {
		t.Fatalf("first violation should be the uncovered store, got %+v", vs[0])
	}
}

func TestUndoAppendCoversStore(t *testing.T) {
	m, a := rig(t, audit.Options{})
	base, _ := a.Region()
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m.EmitEvent(obs.EvUndoAppend, int64(base+8), 4)
	m.OnStore(base+8, 4, 42, 0)
	if err := a.Err(); err != nil {
		t.Fatalf("covered store flagged: %v", err)
	}
	// A second store to a *different* word in the same epoch is uncovered.
	m.OnStore(base+16, 4, 42, 0)
	if a.Total() != 1 || a.Violations()[0].Check != audit.CheckUndoLog {
		t.Fatalf("uncovered store not flagged: %v", a.Violations())
	}
}

func TestCheckpointAtomicityViolation(t *testing.T) {
	m, a := rig(t, audit.Options{})

	committed := vm.Registers{PC: 0x100, SP: 0x8000, FP: 0x8000}
	m.Regs = committed
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0)

	// Later, a checkpoint begins at different registers and a power
	// failure tears it.
	torn := vm.Registers{PC: 0x200, SP: 0x7ff0, FP: 0x8000}
	m.Regs = torn
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvPowerFail, 0, 1)

	// A buggy runtime restores from the torn buffer: the registers come
	// back as they were at the torn begin, not the last commit.
	m.Regs = torn
	m.EmitEvent(obs.EvRestore, 0, 0)

	vs := a.Violations()
	if len(vs) != 1 || vs[0].Check != audit.CheckAtomicity {
		t.Fatalf("want one atomicity violation, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "torn checkpoint") {
		t.Fatalf("detail: %s", vs[0].Detail)
	}

	// Control: the correct recovery (registers from the last commit) after
	// a torn checkpoint is clean.
	m2, a2 := rig(t, audit.Options{})
	m2.Regs = committed
	m2.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m2.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m2.Regs = torn
	m2.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m2.EmitEvent(obs.EvPowerFail, 0, 1)
	m2.Regs = committed
	m2.EmitEvent(obs.EvRestore, 0, 0)
	if err := a2.Err(); err != nil {
		t.Fatalf("correct torn-checkpoint recovery flagged: %v", err)
	}
}

func TestTimeConsistencyViolation(t *testing.T) {
	m, a := rig(t, audit.Options{})
	m.EmitEvent(obs.EvExpiry, 250, 0)
	m.EmitEvent(obs.EvSend, 99, 0)
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Check != audit.CheckTime {
		t.Fatalf("want one time-consistency violation, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "expired data") {
		t.Fatalf("detail: %s", vs[0].Detail)
	}

	// Control: expiry followed by the runtime's restore, then a send, is
	// the correct TICS behavior.
	m2, a2 := rig(t, audit.Options{})
	m2.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m2.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m2.EmitEvent(obs.EvExpiry, 250, 0)
	m2.EmitEvent(obs.EvRestore, 0, 0)
	m2.EmitEvent(obs.EvSend, 99, 0)
	if err := a2.Err(); err != nil {
		t.Fatalf("handled expiry flagged: %v", err)
	}
}

func TestCheckTimeKnobDisablesTimeConsistency(t *testing.T) {
	off := false
	m, a := rig(t, audit.Options{CheckTime: &off})
	m.EmitEvent(obs.EvExpiry, 250, 0)
	m.EmitEvent(obs.EvSend, 99, 0)
	if err := a.Err(); err != nil {
		t.Fatalf("time check disabled but flagged: %v", err)
	}
}

func TestFailFastHaltsAndStopsChecking(t *testing.T) {
	m, a := rig(t, audit.Options{FailFast: true})
	m.EmitEvent(obs.EvExpiry, 1, 0)
	m.EmitEvent(obs.EvSend, 1, 0) // violation: halts the machine, trips the auditor
	m.EmitEvent(obs.EvSend, 2, 0) // would be a second violation; must be ignored
	if a.Total() != 1 || len(a.Violations()) != 1 {
		t.Fatalf("fail-fast recorded %d violations", a.Total())
	}
}

// TestWriterAttributionEndsAtCommit: a commit closes the epoch, so a byte
// whose last program store came before the latest commit has no known
// writer. Here the store is committed into the shadow, then the byte is
// corrupted outside the program's store stream; the restore must flag
// the divergence without blaming the stale store.
func TestWriterAttributionEndsAtCommit(t *testing.T) {
	m, a := rig(t, audit.Options{})
	base, _ := a.Region()
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m.EmitEvent(obs.EvUndoAppend, int64(base+2), 1)
	m.Mem.WriteByteAt(base+2, 0xAB)
	m.OnStore(base+2, 1, 0xAB, 0)
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0) // epoch k+1: the store is history
	m.Mem.WriteByteAt(base+2, 0xCD)
	m.EmitEvent(obs.EvRestore, 0, 0)

	vs := a.Violations()
	if len(vs) != 1 || vs[0].Check != audit.CheckRollback {
		t.Fatalf("want one rollback violation, got %v", vs)
	}
	if vs[0].Addr != base+2 || vs[0].Want != 0xAB || vs[0].Got != 0xCD {
		t.Fatalf("violation anchor wrong: %+v", vs[0])
	}
	if vs[0].WriterSeq != -1 || strings.Contains(vs[0].Detail, "last store") {
		t.Fatalf("a store from before the last commit was blamed: %+v", vs[0])
	}
}

// TestUndoCoverageEndsWithItsEpoch: an undo append covers stores only
// until the next commit or restore.
func TestUndoCoverageEndsWithItsEpoch(t *testing.T) {
	for _, closer := range []obs.EventKind{obs.EvCheckpointCommit, obs.EvRestore} {
		m, a := rig(t, audit.Options{})
		base, _ := a.Region()
		m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
		m.EmitEvent(obs.EvCheckpointCommit, 0, 0)
		m.EmitEvent(obs.EvUndoAppend, int64(base+8), 4)
		m.OnStore(base+8, 4, 42, 0)
		if a.Total() != 0 {
			t.Fatalf("store covered in its own epoch flagged: %v", a.Violations())
		}
		m.EmitEvent(closer, 0, 0)
		m.OnStore(base+8, 4, 43, 0)
		vs := a.Violations()
		if len(vs) != 1 || vs[0].Check != audit.CheckUndoLog || vs[0].Addr != base+8 {
			t.Fatalf("after %s, the previous epoch's undo entry still covered the store: %v", closer, vs)
		}
	}
}

// sendPC returns the PC of the first send instruction in m's image.
func sendPC(t *testing.T, m *vm.Machine) uint32 {
	t.Helper()
	for off := 0; off < len(m.Img.Text); {
		in, next, err := isa.Decode(m.Img.Text, off)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.Send {
			return m.Img.TextBase + uint32(off)
		}
		off = next
	}
	t.Fatal("image has no send instruction")
	return 0
}

// TestReattachStartsClean: an auditor reused through Reattach on a
// second machine carries nothing over from its previous run — no
// violations, no undo coverage, no shadow, no production times or send
// ages — and reports a new run exactly as a freshly attached auditor
// does.
func TestReattachStartsClean(t *testing.T) {
	m, a := rigFor(t, sendSrc, audit.Options{})
	base, _ := a.Region()
	g, _ := m.Img.Program.Global("g0")
	g0 := base + g.Offset
	m.EmitEvent(obs.EvCheckpointBegin, 0, 0)
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m.EmitEvent(obs.EvUndoAppend, int64(base+8), 4)
	m.OnStore(base+12, 4, 1, 0) // uncovered: one violation in the first run
	m.EmitEvent(obs.EvUndoAppend, int64(g0), 4)
	m.OnStore(g0, 4, 1, 500) // g0 produced at device ms 500 ...
	m.EmitEvent(obs.EvCheckpointCommit, 0, 0)
	m.OnSend(vm.SendRec{PC: sendPC(t, m), EstMs: 600}) // ... and sent at 600
	if a.Total() != 1 {
		t.Fatalf("first run: %v", a.Violations())
	}
	if ages := a.SendAges(); len(ages) != 1 || ages[0].Global != "g0" || ages[0].AgeMs != 100 {
		t.Fatalf("first run send ages: %+v", ages)
	}

	drive := func(m *vm.Machine) {
		m.OnStore(base+8, 4, 7, 0) // covered only in the previous run
		m.EmitEvent(obs.EvRestore, 0, 0)
		m.OnSend(vm.SendRec{PC: sendPC(t, m), EstMs: 700}) // g0 never written in this run
	}
	m2, fresh := rigFor(t, sendSrc, audit.Options{})
	drive(m2)

	m3, _ := rigFor(t, sendSrc, audit.Options{})
	// rig attached an auditor to m3's recorder already; give the reused
	// one a machine whose recorder carries no sinks or events.
	m3.Recorder().Reset()
	m3.OnStore = nil
	if err := a.Reattach(m3, audit.Options{}); err != nil {
		t.Fatal(err)
	}
	drive(m3)
	if a.Summary() != fresh.Summary() {
		t.Fatalf("reattached auditor differs from a fresh one:\n%s\nfresh:\n%s", a.Summary(), fresh.Summary())
	}
	if a.Total() != 1 || a.Violations()[0].Check != audit.CheckUndoLog {
		t.Fatalf("stale undo coverage leaked into the next run: %v", a.Violations())
	}
	if got, want := a.SendAges(), fresh.SendAges(); !reflect.DeepEqual(got, want) || len(got) != 1 || got[0].AgeMs != 700 {
		t.Fatalf("the previous run's freshness record leaked into the next run: send ages %+v, fresh %+v", got, want)
	}
	if err := a.Reattach(m3, audit.Options{}); err == nil {
		t.Fatal("Reattach onto a recorder that already carries events must fail")
	}
}
