package core_test

import (
	"testing"

	tics "repro"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/vm"
)

// isrSrc: a timer ISR maintains a non-volatile tick counter while main
// does foreground work. Under TICS the ISR's effects commit exactly once
// (the implicit checkpoint after return-from-interrupt), and an ISR cut
// short by a power failure never happened (paper §4).
const isrSrc = `
int ticks;
int work;

void isr_timer() {
    ticks++;
}

int main() {
    int i;
    for (i = 0; i < 1500; i++) {
        work += i & 7;
    }
    out(0, work);
    return 0;
}
`

func TestInterruptsUnderTICS(t *testing.T) {
	img, cfg := buildTICS(t, isrSrc, core.Config{StackBytes: 2048})

	run := func(p power.Source) (vm.Result, *vm.Machine) {
		rt, err := core.New(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(vm.Config{
			Image: img, Runtime: rt, Power: p,
			AutoCpPeriodMs:    1,
			InterruptPeriodMs: 2,
			MaxCycles:         500_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}

	oracle, om := run(power.Continuous{})
	if !oracle.Completed {
		t.Fatalf("oracle: %+v", oracle)
	}
	wantWork := oracle.OutLog[0][0]
	oTicks, _ := om.ReadGlobal("ticks")
	if oracle.Interrupts == 0 || oTicks == 0 {
		t.Fatalf("oracle saw no interrupts: %d / %d", oracle.Interrupts, oTicks)
	}

	// Fixed-size windows phase-lock with the interrupt period (the timer
	// rearms 2 ms after every reboot), so the window must leave room after
	// the interrupt phase for the whole ISR path — grow, store, shrink,
	// implicit checkpoint (~1.6 ms) — or no tick can ever commit. That
	// resonance floor is itself the paper's starvation phenomenon.
	for _, k := range []int64{9000, 5501, 3803} {
		res, m := run(&power.FailEvery{Cycles: k, OffMs: 5})
		if !res.Completed {
			t.Fatalf("k=%d: %+v", k, res)
		}
		if got := res.OutLog[0][0]; got != wantWork {
			t.Fatalf("k=%d: foreground work corrupted by ISRs: %d != %d", k, got, wantWork)
		}
		ticks, _ := m.ReadGlobal("ticks")
		if ticks <= 0 {
			t.Fatalf("k=%d: no committed ticks", k)
		}
		// Exactly-once accounting: every committed tick corresponds to a
		// completed ISR, and no more ISRs were delivered than ticks+losses.
		if int64(ticks) > res.Interrupts {
			t.Fatalf("k=%d: %d ticks committed but only %d interrupts delivered", k, ticks, res.Interrupts)
		}
		if res.Failures == 0 {
			t.Fatalf("k=%d: no failures injected", k)
		}
	}
}

func TestISRKilledByFailureNeverHappened(t *testing.T) {
	// Windows so small that many ISRs are cut short: committed ticks must
	// still only ever reflect *completed* ISRs (monotone, no corruption),
	// and the foreground result must stay exact.
	img, cfg := buildTICS(t, isrSrc, core.Config{StackBytes: 2048})
	rt, err := core.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{
		Image: img, Runtime: rt,
		Power:             &power.FailEvery{Cycles: 2500, OffMs: 3},
		AutoCpPeriodMs:    1,
		InterruptPeriodMs: 1, // an ISR storm
		MaxCycles:         500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	if got := res.OutLog[0][0]; got != 5242 { // sum of i&7 over 1500 iterations
		t.Fatalf("foreground work: %d", got)
	}
	stats := rt.Stats()
	if stats["interrupts"] <= stats["isr-checkpoints"] {
		// With failures injected mid-ISR, some deliveries must vanish.
		t.Logf("note: every ISR completed (interrupts=%d, commits=%d)", stats["interrupts"], stats["isr-checkpoints"])
	}
}

// TestDefaultInterruptTransfer covers the vm's default interrupt hooks (a
// call-like transfer into the ISR, nothing on return) under runtimes that
// keep them: on continuous power every delivered interrupt runs its ISR
// exactly once and the foreground work is untouched.
func TestDefaultInterruptTransfer(t *testing.T) {
	for _, kind := range []tics.RuntimeKind{tics.RTPlain, tics.RTMementos} {
		img, err := tics.Build(isrSrc, tics.BuildOptions{Runtime: kind})
		if err != nil {
			t.Fatal(err)
		}
		m, err := tics.NewMachine(img, tics.RunOptions{InterruptPeriodMs: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			t.Fatalf("%s: %v %+v", kind, err, res)
		}
		if res.Interrupts == 0 {
			t.Fatalf("%s: no interrupts delivered", kind)
		}
		if ticks, _ := m.ReadGlobal("ticks"); int64(ticks) != res.Interrupts {
			t.Fatalf("%s: %d ticks committed for %d interrupts", kind, ticks, res.Interrupts)
		}
		if got := res.OutLog[0][0]; got != 5242 {
			t.Fatalf("%s: foreground work: %d", kind, got)
		}
	}
}

func TestMissingISRRejected(t *testing.T) {
	img, cfg := buildTICS(t, tortureSrc, core.Config{StackBytes: 2048})
	rt, err := core.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(vm.Config{Image: img, Runtime: rt, InterruptPeriodMs: 5}); err == nil {
		t.Fatal("machine accepted an interrupt period without an ISR")
	}
}
