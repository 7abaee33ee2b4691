package tics_test

import (
	"bytes"
	"reflect"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// cowCorpus is FuzzTICSInvariants' seed corpus: the same random programs
// and failure periods, reused here to drive whole-VM differential runs.
var cowCorpus = []struct{ seed, k int64 }{
	{0, 23_000},
	{3, 7_919},
	{11, 50_021},
}

func clampK(k int64) int64 {
	if k < 0 {
		k = -k
	}
	return 5_000 + k%95_000
}

// TestCOWMachineMatchesFlat is the tentpole's whole-VM equivalence gate:
// a machine on a copy-on-write fork of the image (the tics.NewMachine
// path) must be bit-identical — committed output, cycle count, memory
// traffic stats, checkpoint/restore counts, and the final 64 KB memory
// image — to a machine that privately loads the image into a flat
// memory, across the fuzz corpus's programs under failure injection.
func TestCOWMachineMatchesFlat(t *testing.T) {
	for _, tc := range cowCorpus {
		k := clampK(tc.k)
		src := apps.Random(tc.seed)
		img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatalf("seed %d: build: %v", tc.seed, err)
		}

		// Flat path: vm.New with no Prepared loads a private memory, the
		// way every machine worked before copy-on-write forks.
		flatRT, err := core.New(img.Image, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		flat, err := vm.New(vm.Config{
			Image:          img.Image,
			Runtime:        flatRT,
			Power:          &power.FailEvery{Cycles: k, OffMs: 3},
			Sensors:        sensors.NewBank(1),
			AutoCpPeriodMs: 2,
			MaxCycles:      500_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		flatRes, err := flat.Run()
		if err != nil {
			t.Fatalf("seed %d: flat run: %v", tc.seed, err)
		}

		// COW path: the facade shares one prepared image per Image.
		cow, err := tics.NewMachine(img, tics.RunOptions{
			Power:          &power.FailEvery{Cycles: k, OffMs: 3},
			Sensors:        sensors.NewBank(1),
			AutoCpPeriodMs: 2,
			MaxCycles:      500_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		cowRes, err := cow.Run()
		if err != nil {
			t.Fatalf("seed %d: cow run: %v", tc.seed, err)
		}

		compareRuns(t, "cow vs flat", tc.seed, cowRes, flatRes)
		if !bytes.Equal(flat.Mem.Snapshot(), cow.Mem.Snapshot()) {
			t.Fatalf("seed %d: final memory images diverge", tc.seed)
		}
		if flat.Mem.Stats() != cow.Mem.Stats() {
			t.Fatalf("seed %d: final mem stats diverge: %+v vs %+v",
				tc.seed, flat.Mem.Stats(), cow.Mem.Stats())
		}

		// Pooled-reuse path: resetting the COW machine and re-running the
		// same device must reproduce the first run exactly.
		if err := tics.ResetMachine(cow, img, tics.RunOptions{
			Power:          &power.FailEvery{Cycles: k, OffMs: 3},
			Sensors:        sensors.NewBank(1),
			AutoCpPeriodMs: 2,
			MaxCycles:      500_000_000,
		}); err != nil {
			t.Fatalf("seed %d: reset: %v", tc.seed, err)
		}
		againRes, err := cow.Run()
		if err != nil {
			t.Fatalf("seed %d: rerun after reset: %v", tc.seed, err)
		}
		compareRuns(t, "reset vs first", tc.seed, againRes, cowRes)
		if !bytes.Equal(flat.Mem.Snapshot(), cow.Mem.Snapshot()) {
			t.Fatalf("seed %d: memory diverged after pooled rerun", tc.seed)
		}
	}
}

func compareRuns(t *testing.T, label string, seed int64, got, want vm.Result) {
	t.Helper()
	if !got.Completed || !want.Completed {
		t.Fatalf("seed %d: %s: incomplete runs (%v vs %v)", seed, label, got.Completed, want.Completed)
	}
	if !reflect.DeepEqual(got.OutLog, want.OutLog) {
		t.Fatalf("seed %d: %s: OutLog diverged\n got  %v\n want %v", seed, label, got.OutLog, want.OutLog)
	}
	if got.Cycles != want.Cycles || got.Failures != want.Failures {
		t.Fatalf("seed %d: %s: cycles/failures diverged: %d/%d vs %d/%d",
			seed, label, got.Cycles, got.Failures, want.Cycles, want.Failures)
	}
	if got.MemStats != want.MemStats {
		t.Fatalf("seed %d: %s: MemStats diverged: %+v vs %+v", seed, label, got.MemStats, want.MemStats)
	}
	if got.TotalCheckpoints != want.TotalCheckpoints || got.Restores != want.Restores {
		t.Fatalf("seed %d: %s: checkpoint accounting diverged", seed, label)
	}
}
