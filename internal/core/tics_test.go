package core_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/vm"
)

// tortureSrc concentrates every consistency hazard the runtime must
// survive: write-after-read updates to non-volatile globals, byte stores,
// recursion deep enough to span several stack segments, and pointer writes
// from a deep callee into the caller's segment (cross-segment undo
// logging).
const tortureSrc = `
int g1;
int g2 = 100;
char bytes[8];
int arr[6];

int rec(int n, int *acc) {
    int local[2];
    local[0] = n;
    *acc += local[0];
    if (n > 0) { return rec(n - 1, acc); }
    return *acc;
}

int main() {
    int i;
    int acc = 0;
    for (i = 0; i < 6; i++) {
        g1 = g1 + i + 1;
        arr[i] = g1 * 2;
        bytes[i] = g1;
    }
    rec(8, &acc);
    g2 += acc;
    out(0, g1);
    out(1, g2);
    out(2, acc);
    for (i = 0; i < 6; i++) {
        out(3, arr[i]);
        out(4, bytes[i]);
    }
    return 0;
}
`

func buildTICS(t *testing.T, src string, cfg core.Config) (*link.Image, core.Config) {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Instrument stores the way the facade does.
	if _, err := instrument.Apply(prog, instrument.ForTICS()); err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg
}

func runTICS(t *testing.T, img *link.Image, cfg core.Config, src power.Source, autoCpMs float64) vm.Result {
	t.Helper()
	rt, err := core.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{
		Image: img, Runtime: rt, Power: src,
		AutoCpPeriodMs: autoCpMs, MaxCycles: 500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTortureFailureSweep is the two-phase-commit torture test: a power
// failure is injected every k cycles for a dense sweep of k, so failures
// land inside checkpoint commits, undo-log appends, stack grows and
// restores. The committed output must equal the continuous-power oracle
// every single time.
func TestTortureFailureSweep(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		minK int64 // smallest window that still fits restore + checkpoint + one logged store
	}{
		{"min-segment", core.Config{}, 1600},
		{"256B-segment", core.Config{SegmentBytes: 256}, 3000},
		{"differential", core.Config{SegmentBytes: 256, DifferentialCheckpoints: true}, 3000},
		{"block-undo-16B", core.Config{UndoBlockBytes: 16}, 1600},
		{"block-undo-32B", core.Config{UndoBlockBytes: 32}, 1700},
	}
	for _, tc := range cases {
		segment := tc.name
		cfg := tc.cfg
		cfg.StackBytes = 2048
		cfg.UndoCapBytes = 2048
		img, cfg := buildTICS(t, tortureSrc, cfg)
		oracle := runTICS(t, img, cfg, power.Continuous{}, 0)
		if !oracle.Completed {
			t.Fatalf("oracle did not complete: %+v", oracle)
		}
		step := int64(7)
		for k := int64(6000); k >= tc.minK; k -= step {
			res := runTICS(t, img, cfg, &power.FailEvery{Cycles: k, OffMs: 3}, 1)
			if !res.Completed {
				t.Fatalf("seg=%s k=%d: did not complete (starved=%v failures=%d)",
					segment, k, res.Starved, res.Failures)
			}
			if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
				t.Fatalf("seg=%s k=%d: output diverged\n got  %v\n want %v",
					segment, k, res.OutLog, oracle.OutLog)
			}
			if res.Failures == 0 {
				t.Fatalf("seg=%s k=%d: no failures injected", segment, k)
			}
		}
	}
}

// TestUndoLogRollbackProperty drives random instrumented stores against
// the runtime and then forces a reboot WITHOUT a checkpoint: every store
// must be rolled back exactly.
func TestUndoLogRollbackProperty(t *testing.T) {
	cfg := core.Config{StackBytes: 2048, UndoCapBytes: 2048}
	img, cfg := buildTICS(t, `int g[32]; int main() { return 0; }`, cfg)
	base, ok := img.GlobalAddr("g")
	if !ok {
		t.Fatal("no global g")
	}
	check := func(writes []uint16) bool {
		rt, err := core.New(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(vm.Config{Image: img, Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		m.PowerOn(1 << 40)
		rt.Boot(m, true)
		before := m.Mem.Snapshot()
		for i, w := range writes {
			if i >= 100 {
				break // stay under the log capacity
			}
			addr := base + uint32(w%32)*4
			rt.LoggedStore(m, addr, 4, uint32(w)^0xDEAD)
		}
		// Power failure without checkpoint: reboot must roll back.
		m.Regs = vm.Registers{}
		rt.Boot(m, false)
		after := m.Mem.Snapshot()
		// Compare only the globals area (runtime bookkeeping may differ).
		lo, hi := int(img.GlobalsBase), int(img.StackBase)
		return reflect.DeepEqual(before[lo:hi], after[lo:hi])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentTooSmall verifies the compile-time floor on segment size.
func TestSegmentTooSmall(t *testing.T) {
	prog, err := cc.Compile(tortureSrc, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{SegmentBytes: 8, StackBytes: 2048}
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(img, cfg); err == nil {
		t.Fatal("accepted a segment smaller than the largest frame")
	}
}

// TestSegmentArrayExhaustion: recursion deeper than the segment array
// faults deterministically instead of corrupting memory.
func TestSegmentArrayExhaustion(t *testing.T) {
	src := `
int rec(int n) { int pad[8]; pad[0] = n; if (n > 0) { return rec(n - 1) + pad[0]; } return 0; }
int main() { out(0, rec(60)); return 0; }
`
	prog, err := cc.Compile(src, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{StackBytes: 256} // tiny segment array
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		_ = f
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil && res.Fault == nil {
		t.Fatalf("deep recursion in a tiny segment array did not fault: %+v", res)
	}
}

// TestCheckpointCounting checks that stack-change checkpoints appear with
// minimum segments and disappear with large ones.
func TestCheckpointCounting(t *testing.T) {
	small, cfgS := buildTICS(t, tortureSrc, core.Config{StackBytes: 2048})
	resS := runTICS(t, small, cfgS, power.Continuous{}, 0)
	if resS.Checkpoints["stack-grow"] == 0 || resS.Checkpoints["stack-shrink"] == 0 {
		t.Fatalf("minimum segments produced no stack-change checkpoints: %v", resS.Checkpoints)
	}
	big, cfgB := buildTICS(t, tortureSrc, core.Config{SegmentBytes: 512, StackBytes: 2048})
	resB := runTICS(t, big, cfgB, power.Continuous{}, 0)
	if resB.Checkpoints["stack-grow"] != 0 {
		t.Fatalf("512 B segments still grew the stack: %v", resB.Checkpoints)
	}
	if resB.TotalCheckpoints >= resS.TotalCheckpoints {
		t.Fatalf("bigger segments should checkpoint less: %d vs %d",
			resB.TotalCheckpoints, resS.TotalCheckpoints)
	}
}
