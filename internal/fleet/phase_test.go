package fleet

import (
	"context"
	"strings"
	"testing"
)

// requirePhaseStructure asserts the deterministic part of phase timing:
// every report carries exactly the PhaseNames phases, in order, each
// non-negative — independent of fleet size and worker count.
func requirePhaseStructure(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Phases) != len(PhaseNames) {
		t.Fatalf("got %d phases, want %d: %+v", len(rep.Phases), len(PhaseNames), rep.Phases)
	}
	for i, p := range rep.Phases {
		if p.Phase != PhaseNames[i] {
			t.Fatalf("phase %d = %q, want %q", i, p.Phase, PhaseNames[i])
		}
		if p.Seconds < 0 {
			t.Fatalf("phase %s negative: %g", p.Phase, p.Seconds)
		}
	}
}

func TestPhaseTimersReconcile(t *testing.T) {
	cfg := lossyCfg(2)
	cfg.Collect = true
	cfg.Trace = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requirePhaseStructure(t, rep)

	var sum float64
	for _, p := range rep.Phases {
		sum += p.Seconds
	}
	if rep.WallSeconds <= 0 {
		t.Fatalf("wall seconds %g", rep.WallSeconds)
	}
	// The phases partition the instrumented stretch of Run with no gaps
	// between enter calls, so the only slack is the work between the
	// last phase close and the wall read (a resource sample). Allow 20%
	// plus a small absolute floor for scheduler noise on tiny rounds.
	if sum > rep.WallSeconds+1e-9 {
		t.Fatalf("phase sum %g exceeds wall %g", sum, rep.WallSeconds)
	}
	if slack := rep.WallSeconds - sum; slack > 0.2*rep.WallSeconds+0.005 {
		t.Fatalf("phase sum %g reconciles poorly with wall %g (slack %g)", sum, rep.WallSeconds, slack)
	}
	// The device phase is the report's Elapsed by construction.
	if dev := PhaseSeconds(rep.Phases, PhaseDevices); dev < rep.Elapsed*0.5 || dev > rep.Elapsed*2+0.005 {
		t.Fatalf("devices phase %g vs elapsed %g", dev, rep.Elapsed)
	}
	if rep.Resources.TotalAllocBytes == 0 || rep.Resources.Goroutines < 1 {
		t.Fatalf("resource snapshot empty: %+v", rep.Resources)
	}
}

func TestPhaseStructureWorkerIndependent(t *testing.T) {
	var phaseNames [][]string
	for _, workers := range []int{1, 4} {
		rep, err := Run(lossyCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		requirePhaseStructure(t, rep)
		names := make([]string, len(rep.Phases))
		for i, p := range rep.Phases {
			names[i] = p.Phase
		}
		phaseNames = append(phaseNames, names)
	}
	if strings.Join(phaseNames[0], ",") != strings.Join(phaseNames[1], ",") {
		t.Fatalf("phase structure depends on worker count: %v vs %v", phaseNames[0], phaseNames[1])
	}
}

// TestLoopModePhasesEveryRound subscribes to the server's round stream
// and checks that every round of a -loop run publishes a full phase
// partition, not just the first.
func TestLoopModePhasesEveryRound(t *testing.T) {
	s := NewServer(lossyCfg(2), true)
	ch := make(chan []byte, 16)
	s.subMu.Lock()
	s.subs[999] = ch
	s.subMu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunFleet(ctx) }()

	rounds := 0
	for rounds < 3 {
		b := <-ch
		sum := string(b)
		for _, name := range PhaseNames {
			if !strings.Contains(sum, `"`+name+`"`) {
				t.Fatalf("round %d summary missing phase %q: %s", rounds, name, sum)
			}
		}
		if !strings.Contains(sum, `"wall_ms"`) {
			t.Fatalf("round %d summary missing wall_ms: %s", rounds, sum)
		}
		rounds++
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunFleet: %v", err)
	}
	if s.Runs() < 3 {
		t.Fatalf("runs %d", s.Runs())
	}
	// Each published report re-measured its phases.
	requirePhaseStructure(t, s.Report())
}

// TestWritePhasesProm: Report.WritePrometheus writes the phase
// partition as one labeled family, fleet_phase_seconds{phase}, ahead of
// the fleet_resource_* gauges.
func TestWritePhasesProm(t *testing.T) {
	var b strings.Builder
	rep := &Report{Phases: []PhaseTime{{Phase: "build", Seconds: 0.25}, {Phase: "devices", Seconds: 1.5}}}
	if err := rep.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE fleet_phase_seconds gauge\n" +
		"fleet_phase_seconds{phase=\"build\"} 0.25\n" +
		"fleet_phase_seconds{phase=\"devices\"} 1.5\n" +
		"# TYPE fleet_resource_gc_cycles gauge\n"
	if !strings.HasPrefix(b.String(), want) {
		t.Fatalf("got:\n%s\nwant it to start with:\n%s", b.String(), want)
	}
}
