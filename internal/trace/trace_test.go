package trace_test

import (
	"fmt"
	"testing"

	tics "repro"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recorder is the minimal flight recorder a detector needs: the
// detector reads commits and restores off its event stream.
func recorder() *obs.Recorder { return obs.NewRecorder(obs.Options{RingCap: 1}) }

// A compact sampling program with one annotated slot: fresh on continuous
// power, stale when a long outage splits sampling from consumption.
const src = `
@expires_after=100 int data[4];
int sink;

int main() {
    int i;
    int j;
    for (j = 0; j < 5; j++) {
        for (i = 0; i < 4; i++) {
            data[i] @= sense(4);
        }
        @expires(data[0]) {
            sink = data[0] + data[1] + data[2] + data[3];
            mark(0);
        } catch {
            mark(1);
        }
    }
    out(0, sink);
    return 0;
}
`

func runWithDetector(t *testing.T, p power.Source) *trace.Detector {
	t.Helper()
	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{Power: p, AutoCpPeriodMs: 5, MaxCycles: 500_000_000, Recorder: recorder()})
	if err != nil {
		t.Fatal(err)
	}
	det, err := trace.Attach(m, img.Image, trace.Config{
		Pairs:       []trace.Pair{{DataName: "data"}},
		ConsumeMark: 0,
		FreshnessMs: 100,
		AlignMs:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	det.Finish()
	return det
}

func TestCleanRunHasNoViolations(t *testing.T) {
	det := runWithDetector(t, power.Continuous{})
	if det.Misalign.Observed != 0 || det.Expired.Observed != 0 {
		t.Fatalf("violations on continuous power: %+v %+v", det.Misalign, det.Expired)
	}
	if det.Misalign.Potential != 20 || det.Expired.Potential != 20 {
		t.Fatalf("potentials: %+v %+v (want 20 committed samples)", det.Misalign, det.Expired)
	}
}

func TestTICSStaysCleanUnderFailures(t *testing.T) {
	det := runWithDetector(t, &power.FailEvery{Cycles: 4000, OffMs: 150})
	if det.Misalign.Observed != 0 || det.Expired.Observed != 0 {
		t.Fatalf("TICS produced violations: %+v %+v", det.Misalign, det.Expired)
	}
}

// TestRebootMidWindowDiscardsPending pins the detector's pending/commit/
// discard semantics by driving stores, marks and the commit and restore
// events directly: tallies
// observed between a checkpoint and a power failure belong to an
// execution the runtime rolled back, so the restore must discard them —
// otherwise replayed code double-counts and aborted consumes count as
// violations that never committed.
func TestRebootMidWindowDiscardsPending(t *testing.T) {
	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{Recorder: recorder()})
	if err != nil {
		t.Fatal(err)
	}
	det, err := trace.Attach(m, img.Image, trace.Config{
		Pairs:       []trace.Pair{{DataName: "data"}},
		ConsumeMark: 0,
		FreshnessMs: 100,
		AlignMs:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := img.Image.Program.Global("data")
	if !ok {
		t.Fatal("no data global")
	}
	addr := img.Image.GlobalsBase + g.Offset

	// A committed sample: store, then the checkpoint commits it.
	m.OnStore(addr, 4, 1, 0)
	m.EmitEvent(obs.EvCheckpointCommit, int64(vm.CpManual), 0)
	if det.Misalign.Potential != 1 {
		t.Fatalf("committed potential = %d, want 1", det.Misalign.Potential)
	}

	// Mid-window events: a store and a consume whose stale timestamp would
	// count as both misaligned and expired — but power fails before the
	// next checkpoint, so the restore discards all of it.
	m.OnStore(addr, 4, 2, 1000)
	m.OnMark(0, 5000)
	m.EmitEvent(obs.EvRestore, 0, 0)
	det.Finish()
	if det.Misalign.Potential != 1 || det.Misalign.Observed != 0 || det.Expired.Observed != 0 {
		t.Fatalf("discarded window leaked into committed counts: %+v %+v", det.Misalign, det.Expired)
	}

	// The replayed window reaches a checkpoint this time: now it counts.
	m.OnStore(addr, 4, 2, 1000)
	m.OnMark(0, 5000)
	m.EmitEvent(obs.EvCheckpointCommit, int64(vm.CpManual), 0)
	if det.Misalign.Observed == 0 || det.Expired.Observed == 0 {
		t.Fatalf("committed window not counted: %+v %+v", det.Misalign, det.Expired)
	}
	if det.Misalign.Potential != 2 {
		t.Fatalf("potential = %d, want 2 (no double-count from the replay)", det.Misalign.Potential)
	}
}

func TestAttachErrors(t *testing.T) {
	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := tics.NewMachine(img, tics.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Attach(bare, img.Image, trace.Config{Pairs: []trace.Pair{{DataName: "data"}}}); err == nil {
		t.Fatal("machine without a recorder accepted")
	}
	m, err := tics.NewMachine(img, tics.RunOptions{Recorder: recorder()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Attach(m, img.Image, trace.Config{Pairs: []trace.Pair{{DataName: "nope"}}}); err == nil {
		t.Fatal("unknown global accepted")
	}
	if _, err := trace.Attach(m, img.Image, trace.Config{Pairs: []trace.Pair{{DataName: "sink"}}}); err == nil {
		t.Fatal("non-annotated global without TSName accepted")
	}
}

func TestDualBranchCounting(t *testing.T) {
	dualSrc := `
int A[4];
int B[4];
int main() {
    A[0] = 1;
    B[0] = 1; // dual evidence for decision 0
    A[1] = 1; // single evidence for decision 1
    out(0, 0);
    return 0;
}
`
	img, err := tics.Build(dualSrc, tics.BuildOptions{Runtime: tics.RTPlain})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.CountDualBranches(m, img.Image, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if c.Potential != 2 || c.Observed != 1 {
		t.Fatalf("dual branches: %+v", c)
	}
}

// taskSrc is a two-task program with a hand-written data/timestamp pair
// whose timestamp is a second stale, so its one consume tallies as both
// misaligned and expired; a third task then runs long enough for a
// reboot to land after the consume's task committed.
const taskSrc = `
int data;
int ts;
int sink;

void t_sample() {
    ts = now() - 1000;
    data = sense(4);
    transition_to(1);
}

void t_consume() {
    sink = data;
    mark(0);
    transition_to(2);
}

void t_idle() {
    int i;
    for (i = 0; i < 200; i++) {
        sink = sink + i;
    }
    transition_to(99);
}

int main() { return 0; }
`

// TestTaskCommitKeepsTallies: under a task-based runtime every commit is
// a task transition (EvTaskCommit), and a consume tallied in a task that
// committed must survive a reboot in a later task.
func TestTaskCommitKeepsTallies(t *testing.T) {
	img, err := tics.Build(taskSrc, tics.BuildOptions{Runtime: tics.RTAlpaca, Tasks: []string{"t_sample", "t_consume", "t_idle"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.Config{Pairs: []trace.Pair{{DataName: "data", TSName: "ts"}}, ConsumeMark: 0, FreshnessMs: 100, AlignMs: 20}
	run := func(p power.Source) (*trace.Detector, vm.Result, []obs.Event) {
		t.Helper()
		rec := obs.NewRecorder(obs.Options{RingCap: 256}) // holds every event of the run
		m, err := tics.NewMachine(img, tics.RunOptions{Power: p, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		det, err := trace.Attach(m, img.Image, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			t.Fatalf("run: %v %+v", err, res)
		}
		det.Finish()
		return det, res, rec.Events()
	}

	// The uninterrupted run places the reboot: midway between the commit
	// that leaves t_consume and the end of the run.
	_, res, events := run(power.Continuous{})
	var consumed int64 = -1
	for _, ev := range events {
		if ev.Kind == obs.EvTaskCommit && ev.Arg0 == 2 {
			consumed = ev.Cycles
		}
	}
	if consumed < 0 {
		t.Fatal("no commit into t_idle")
	}
	spec := fmt.Sprintf("sched:%d@20", (consumed+res.Cycles)/2)
	p, err := replay.ParsePower(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	det, res, _ := run(p)
	if res.Restores != 1 {
		t.Fatalf("%s: %d restores, want 1", spec, res.Restores)
	}
	want := trace.Counts{Potential: 1, Observed: 1}
	if det.Misalign != want || det.Expired != want {
		t.Fatalf("%s: misalign %+v, expired %+v; want %+v each: the restore discarded committed tallies", spec, det.Misalign, det.Expired, want)
	}
}
