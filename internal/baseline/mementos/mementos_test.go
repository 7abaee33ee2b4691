package mementos_test

import (
	"reflect"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/baseline/mementos"
	"repro/internal/cc"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

const warSrc = `
// Figure 3(a): a write-after-read update of a non-volatile global. If the
// checkpoint does not version globals, a restore replays the increment on
// the already-updated value.
int len = 10;
int main() {
    int i;
    for (i = 0; i < 40; i++) {
        len = len + 1;
    }
    out(0, len);
    return 0;
}
`

func buildMementos(t *testing.T, src string, cfg mementos.Config) (*link.Image, mementos.Config) {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instrument.Apply(prog, instrument.ForMementos()); err != nil {
		t.Fatal(err)
	}
	globals := int(prog.GlobalsBytes()) + 4*prog.MarkCount
	img, err := link.Link(prog, mementos.Spec(cfg, globals, 2048))
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg
}

func runMementos(t *testing.T, img *link.Image, cfg mementos.Config, src power.Source) (vm.Result, *vm.Machine) {
	t.Helper()
	rt, err := mementos.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt, Power: src, MaxCycles: 500_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// TestFullStateCheckpointIsConsistent: the naive checkpointer that
// versions the complete stack and all globals survives a failure sweep.
func TestFullStateCheckpointIsConsistent(t *testing.T) {
	img, cfg := buildMementos(t, warSrc, mementos.DefaultConfig())
	oracle, _ := runMementos(t, img, cfg, power.Continuous{})
	if oracle.OutLog[0][0] != 50 {
		t.Fatalf("oracle: %v", oracle.OutLog)
	}
	for k := int64(9000); k >= 3500; k -= 111 {
		res, _ := runMementos(t, img, cfg, &power.FailEvery{Cycles: k, OffMs: 2})
		if !res.Completed {
			t.Fatalf("k=%d: starved=%v failures=%d", k, res.Starved, res.Failures)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("k=%d: %v != %v", k, res.OutLog, oracle.OutLog)
		}
	}
}

// TestWARViolationWithoutGlobalVersioning reproduces Figure 3(a): leave
// globals out of the checkpoint and the replayed increments corrupt len.
func TestWARViolationWithoutGlobalVersioning(t *testing.T) {
	cfg := mementos.Config{VersionGlobals: false}
	img, cfg := buildMementos(t, warSrc, cfg)
	violated := false
	for k := int64(9000); k >= 3500; k -= 111 {
		res, m := runMementos(t, img, cfg, &power.FailEvery{Cycles: k, OffMs: 2})
		if !res.Completed {
			continue
		}
		v, err := m.ReadGlobal("len")
		if err != nil {
			t.Fatal(err)
		}
		if v != 50 {
			violated = true
			if v < 50 {
				t.Fatalf("k=%d: len=%d — WAR replay can only inflate", k, v)
			}
		}
	}
	if !violated {
		t.Fatal("no WAR violation observed across the sweep; the broken mode is not broken")
	}
}

// TestVoltageGateSkipsTriggers: under continuous power a voltage-gated
// configuration never checkpoints at triggers.
func TestVoltageGateSkipsTriggers(t *testing.T) {
	cfg := mementos.DefaultConfig()
	cfg.VoltageThresholdCycles = 3000
	img, cfg := buildMementos(t, warSrc, cfg)
	res, _ := runMementos(t, img, cfg, power.Continuous{})
	// Only the cold-boot checkpoint should exist.
	if res.TotalCheckpoints > 1 {
		t.Fatalf("gated run took %d checkpoints under continuous power", res.TotalCheckpoints)
	}
	img2, cfg2 := buildMementos(t, warSrc, mementos.DefaultConfig())
	res2, _ := runMementos(t, img2, cfg2, power.Continuous{})
	if res2.TotalCheckpoints < 40 {
		t.Fatalf("ungated run took only %d checkpoints", res2.TotalCheckpoints)
	}
}

// TestVoltageGatedColdBootCommitsFirstCheckpoint: with the voltage gate on
// the cold boot's checkpoint must still commit, or the boot magic would
// mark an empty slot as the restore point. One reboot 2000 cycles in
// (before any gated trigger fires) must restore to the program entry and
// finish with the continuous run's output.
func TestVoltageGatedColdBootCommitsFirstCheckpoint(t *testing.T) {
	for _, name := range []string{"bc", "ar"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no app %s", name)
		}
		img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: tics.RTMementos, VoltageThresholdCycles: 3000})
		if err != nil {
			t.Fatal(err)
		}
		run := func(pw string) vm.Result {
			src, err := replay.ParsePower(pw, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tics.NewMachine(img, tics.RunOptions{Power: src, Sensors: sensors.NewBank(1)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s under %s: %v", name, pw, err)
			}
			return res
		}
		want := run("continuous")
		got := run("sched:2000@20")
		if !got.Completed || got.Restores != 1 {
			t.Fatalf("%s: completed=%v restores=%d, want a completed run with one restore", name, got.Completed, got.Restores)
		}
		if !reflect.DeepEqual(got.OutLog, want.OutLog) {
			t.Fatalf("%s: out log %v, want the continuous run's %v", name, got.OutLog, want.OutLog)
		}
	}
}
