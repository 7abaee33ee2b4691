package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/vm"
)

// TestEpochWraparound drives more than 2^16 checkpoints through the
// runtime so the 16-bit undo-log epoch wraps several times, with periodic
// power failures exercising the restore path across the wrap. The epoch
// only ever distinguishes "log written before vs after the active
// checkpoint", so wrapping must be harmless.
func TestEpochWraparound(t *testing.T) {
	const src = `
int g;
int main() {
    int i;
    for (i = 0; i < 400000; i++) {
        g += i & 15;
    }
    out(0, g);
    return 0;
}
`
	img, cfg := buildTICS(t, src, core.Config{StackBytes: 2048})

	run := func(p power.Source) vm.Result {
		rt, err := core.New(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(vm.Config{
			Image: img, Runtime: rt, Power: p,
			AutoCpPeriodMs: 0.25, // a checkpoint every 250 cycles
			MaxCycles:      3_000_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			t.Fatalf("%v %+v", err, res)
		}
		return res
	}

	oracle := run(power.Continuous{})
	if oracle.TotalCheckpoints < 1<<16 {
		t.Fatalf("only %d checkpoints — the epoch never wrapped", oracle.TotalCheckpoints)
	}
	res := run(&power.FailEvery{Cycles: 1_000_003, OffMs: 2})
	if res.TotalCheckpoints < 1<<16 || res.Failures == 0 {
		t.Fatalf("wrap run: %d checkpoints, %d failures", res.TotalCheckpoints, res.Failures)
	}
	if res.OutLog[0][0] != oracle.OutLog[0][0] {
		t.Fatalf("epoch wrap corrupted state: %d != %d", res.OutLog[0][0], oracle.OutLog[0][0])
	}
}

// TestDoubleBufferAlternates: consecutive checkpoints must land in
// alternating slots, and a failure killing an in-flight checkpoint must
// leave the previous slot active.
func TestDoubleBufferAlternates(t *testing.T) {
	img, cfg := buildTICS(t, `int g; int main() { g = 1; return 0; }`, core.Config{StackBytes: 2048})
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
	activeAddr := img.RuntimeBase + 4
	first := m.Mem.ReadWord(activeAddr)
	rt.Checkpoint(m, vm.CpManual)
	second := m.Mem.ReadWord(activeAddr)
	if first == second {
		t.Fatalf("active slot did not flip: %d -> %d", first, second)
	}
	rt.Checkpoint(m, vm.CpManual)
	if third := m.Mem.ReadWord(activeAddr); third != first {
		t.Fatalf("active slot did not alternate: %d %d %d", first, second, third)
	}

	// Kill a checkpoint mid-copy: the active slot must be unchanged.
	before := m.Mem.ReadWord(activeAddr)
	m.PowerOn(50) // not enough for a full checkpoint
	func() {
		defer func() { recover() }() // the power-failure sentinel
		rt.Checkpoint(m, vm.CpManual)
	}()
	m.PowerOn(1 << 40)
	if after := m.Mem.ReadWord(activeAddr); after != before {
		t.Fatalf("a torn checkpoint flipped the active slot: %d -> %d", before, after)
	}
	rt.Boot(m, false)
}
