package vm_test

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/vm"
)

func build(t *testing.T, src string) *link.Image {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{OptLevel: 2})
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
