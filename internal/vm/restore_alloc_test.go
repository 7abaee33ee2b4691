package vm_test

import (
	"testing"

	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
)

// TestRestoredStartAllocs: restoring a snapshot taken before the first
// power failure into a pooled machine set up for a run (Spec.Machine)
// allocates nothing. The runtime is built once: the snapshot's state is
// copied into the one Spec.Machine built, not into a second clone. The
// machine keeps its own timekeeper and refills its own out log.
func TestRestoredStartAllocs(t *testing.T) {
	spec := replay.Spec{App: "bc", Runtime: "tics", Clock: "remanence:0.5,5000", TimerMs: 2, Virtualize: true, Seed: 1}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := spec.Machine(img, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap *vm.Snapshot
	oracle.SetBoundaryHook(100_000, func(m *vm.Machine) int64 {
		snap = m.Snapshot()
		return 1<<63 - 1
	})
	if _, err := oracle.Run(); err != nil || snap == nil {
		t.Fatalf("oracle: %v, snapshot %v", err, snap)
	}
	m, err := spec.Machine(img, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := &power.Schedule{}
	setup := testing.AllocsPerRun(50, func() {
		if _, err := spec.Machine(img, m, src, nil); err != nil {
			t.Fatal(err)
		}
	})
	start := testing.AllocsPerRun(50, func() {
		if _, err := spec.Machine(img, m, src, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Spec.Machine %v allocs, + restore %v", setup, start)
	if start != setup {
		t.Fatalf("restoring allocates %v times, want none", start-setup)
	}
}
