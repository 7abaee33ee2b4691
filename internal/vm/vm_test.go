package vm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/vm"
)

func build(t *testing.T, src string) *link.Image {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestFaultDivideByZero(t *testing.T) {
	img := build(t, `int z; int main() { out(0, 5 / z); return 0; }`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || !strings.Contains(res.Fault.Error(), "division by zero") {
		t.Fatalf("expected divide fault, got %v / %+v", runErr, res)
	}
}

func TestFaultWildStore(t *testing.T) {
	img := build(t, `
int main() {
    int *p;
    p = 0;
    *p = 1;
    return 0;
}`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || !strings.Contains(res.Fault.Error(), "wild store") {
		t.Fatalf("expected wild-store fault, got %v / %+v", runErr, res)
	}
}

func TestFaultStackOverflow(t *testing.T) {
	img := build(t, `
int rec(int n) { int pad[32]; pad[0] = n; return rec(n + 1) + pad[0]; }
int main() { return rec(0); }`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || !strings.Contains(res.Fault.Error(), "stack overflow") {
		t.Fatalf("expected overflow fault, got %v / %+v", runErr, res)
	}
}

func TestFaultTransitionWithoutTaskRuntime(t *testing.T) {
	img := build(t, `int main() { transition_to(1); return 0; }`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil ||
		!strings.Contains(res.Fault.Error(), "not a task runtime") || !strings.Contains(res.Fault.Error(), "plain") {
		t.Fatalf("expected transition fault, got %v / %+v", runErr, res)
	}
}

// taskStub is the plain runtime plus a Transition hook that ends the run.
type taskStub struct {
	*vm.Plain
	transitions int
}

func (s *taskStub) Transition(m *vm.Machine, task int32) {
	s.transitions++
	m.Halt()
}

// TestResetResolvesHooks: pooled machines get a fresh runtime on every
// Reset, so the optional hooks must follow the new runtime, including
// dropping back to the defaults.
func TestResetResolvesHooks(t *testing.T) {
	prep, err := vm.Prepare(build(t, `int main() { transition_to(1); return 0; }`))
	if err != nil {
		t.Fatal(err)
	}
	stub := &taskStub{Plain: vm.NewPlain()}
	m, err := vm.New(vm.Config{Prepared: prep, Runtime: stub})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Run(); err != nil || !res.Completed || stub.transitions != 1 {
		t.Fatalf("stub runtime: %v %+v transitions=%d", err, res, stub.transitions)
	}
	if err := m.Reset(vm.Config{Prepared: prep}); err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil || res.Fault == nil || !strings.Contains(res.Fault.Error(), "not a task runtime") {
		t.Fatalf("after Reset to plain: %v / %+v", runErr, res)
	}
	if stub.transitions != 1 {
		t.Fatalf("Reset kept the old runtime's Transition hook (%d calls)", stub.transitions)
	}
}

func TestPlainRestartsFromMain(t *testing.T) {
	// A plain program under intermittent power restarts main() but keeps
	// its non-volatile globals: the counter keeps growing across reboots
	// even though the loop index restarts.
	img := build(t, `
int count;
int main() {
    int i;
    for (i = 0; i < 1000000; i++) {
        count++;
    }
    out(0, count);
    return 0;
}`)
	m, err := vm.New(vm.Config{
		Image:       img,
		Power:       &power.FailEvery{Cycles: 20_000, OffMs: 1},
		MaxCycles:   2_000_000,
		MaxFailures: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("plain program should never finish under these windows")
	}
	count, err := m.ReadGlobal("count")
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("non-volatile counter lost across reboots")
	}
	if res.Failures == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestWallClockBudget(t *testing.T) {
	img := build(t, `int main() { while (1) { } return 0; }`)
	m, err := vm.New(vm.Config{Image: img, MaxWallMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Completed {
		t.Fatalf("expected timeout, got %+v", res)
	}
	if res.WallMs() < 50 {
		t.Fatalf("wall clock %f < budget", res.WallMs())
	}
}

func TestSendAndMarkLogs(t *testing.T) {
	img := build(t, `
int main() {
    mark(0);
    mark(0);
    mark(2);
    send(7);
    out(1, 9);
    return 0;
}`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MarkCounts) != 3 || res.MarkCounts[0] != 2 || res.MarkCounts[1] != 0 || res.MarkCounts[2] != 1 {
		t.Fatalf("marks: %v", res.MarkCounts)
	}
	if len(res.SendLog) != 1 || res.SendLog[0].Value != 7 {
		t.Fatalf("send: %+v", res.SendLog)
	}
	if res.OutLog[1][0] != 9 {
		t.Fatalf("out: %v", res.OutLog)
	}
	if res.Cycles <= 0 || res.OnMs <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestObserverHooks(t *testing.T) {
	img := build(t, `
int g;
int main() { g = 5; mark(0); return 0; }`)
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	var stores, marks int
	m.OnStore = func(addr uint32, size int, val uint32, ms int64) { stores++ }
	m.OnMark = func(id int32, ms int64) { marks++ }
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if stores == 0 || marks != 1 {
		t.Fatalf("hooks: stores=%d marks=%d", stores, marks)
	}
}

// TestInPlaceOpsMatchPopPush: every two-operand ALU and compare op and
// every unary op, with SP anywhere from below the stack to past its top
// and with zero and nonzero operands, leaves the fault, registers,
// memory and memory statistics that Pop, Pop, Push leaves.
func TestInPlaceOpsMatchPopPush(t *testing.T) {
	img := build(t, `int main() { return 0; }`)
	ops := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt, isa.CmpGe,
		isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU, isa.Neg, isa.Not, isa.LNot}
	base, top := img.StackBase, img.StackBase+img.StackLen
	sps := []uint32{0, 2, base - 8, base - 6, base - 4, base, base + 4, top - 12, top - 8, top - 6,
		top - 4, top, top + 4, mem.Size - 4, mem.Size - 2, ^uint32(3), ^uint32(1)}
	for _, op := range ops {
		for _, sp := range sps {
			for _, r := range []uint32{0, 7} {
				var got [2]error
				var ms [2]*vm.Machine
				for i := range ms {
					m, err := vm.New(vm.Config{Image: img})
					if err != nil {
						t.Fatal(err)
					}
					for j, v := range []uint32{r, 0x80000123} {
						if a := uint64(sp) + 4*uint64(j); a+4 <= mem.Size {
							m.Mem.WriteWord(uint32(a), v)
						}
					}
					m.Mem.ResetStats()
					m.Regs.SP = sp
					if i == 0 {
						got[i] = m.ExecOp(op)
					} else {
						got[i] = m.PopPushOp(op)
					}
					ms[i] = m
				}
				what := fmt.Sprintf("%s at SP=%#x, right operand %d", op, sp, r)
				if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
					t.Fatalf("%s: fault %v, want %v", what, got[0], got[1])
				}
				if ms[0].Regs != ms[1].Regs || ms[0].Mem.Stats() != ms[1].Mem.Stats() ||
					!bytes.Equal(ms[0].Mem.Snapshot(), ms[1].Mem.Snapshot()) {
					t.Fatalf("%s: registers %+v stats %+v, want %+v %+v (memory equal: %v)", what,
						ms[0].Regs, ms[0].Mem.Stats(), ms[1].Regs, ms[1].Mem.Stats(),
						bytes.Equal(ms[0].Mem.Snapshot(), ms[1].Mem.Snapshot()))
				}
			}
		}
	}
}
