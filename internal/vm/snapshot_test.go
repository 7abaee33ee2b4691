package vm_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

// capture is an event sink that keeps the whole stream with its seqs.
type capture struct {
	events []obs.Event
	seqs   []int64
}

func (c *capture) OnEvent(seq int64, ev obs.Event) {
	c.events = append(c.events, ev)
	c.seqs = append(c.seqs, seq)
}

// observed is what one run leaves: its result, the SHA-256 of its event
// stream (seqs included), its memory, its profile and its metrics.
type observed struct {
	res     vm.Result
	stream  string
	mem     []byte
	profile obs.Profile
	metrics string
}

// snapRun is a machine with a profiling recorder and a capture sink.
type snapRun struct {
	m   *vm.Machine
	rec *obs.Recorder
	cap *capture
}

var snapRecOpts = obs.Options{RingCap: 256, Profile: true}

func newSnapRun(t *testing.T, spec replay.Spec, img *tics.Image, power string) snapRun {
	t.Helper()
	src, err := replay.ParsePower(power, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r := snapRun{rec: obs.NewRecorder(snapRecOpts), cap: &capture{}}
	r.rec.AddSink(r.cap)
	if r.m, err = spec.Machine(img, nil, src, r.rec); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r snapRun) observe(res vm.Result) observed {
	r.rec.Finish()
	jsonl, err := obs.EventsJSONL(r.cap.events)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	r.rec.Metrics().Dump(&b)
	return observed{
		res:     res,
		stream:  fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(jsonl, "%v", r.cap.seqs))),
		mem:     r.m.Mem.Snapshot(),
		profile: r.rec.Profile(),
		metrics: b.String(),
	}
}

// taken is one snapshot with the recorder and stream captured with it.
type taken struct {
	m      *vm.Snapshot
	rec    obs.RecorderState
	events []obs.Event
	seqs   []int64
}

// takeSnapshots runs spec under power with a snapshot at the first
// instruction boundary past each cut, and returns them with the run's own
// observation.
func takeSnapshots(t *testing.T, spec replay.Spec, img *tics.Image, power string, cuts []int64) ([]taken, observed) {
	t.Helper()
	r := newSnapRun(t, spec, img, power)
	var snaps []taken
	r.m.SetBoundaryHook(cuts[0], func(m *vm.Machine) int64 {
		s := taken{m: m.Snapshot(), events: slices.Clone(r.cap.events), seqs: slices.Clone(r.cap.seqs)}
		r.rec.Save(&s.rec)
		snaps = append(snaps, s)
		if len(snaps) < len(cuts) {
			return cuts[len(snaps)]
		}
		return math.MaxInt64
	})
	res, _ := r.m.Run()
	return snaps, r.observe(res)
}

// resume starts a fresh machine under power from s, which its first
// window must cover, and runs it on.
func resume(t *testing.T, spec replay.Spec, img *tics.Image, power string, s taken) observed {
	t.Helper()
	r := newSnapRun(t, spec, img, power)
	restored := false
	res, err := r.m.RunFrom([]*vm.Snapshot{s.m}, func(int) {
		restored = true
		r.rec.Load(&s.rec)
		r.cap.events, r.cap.seqs = slices.Clone(s.events), slices.Clone(s.seqs)
	})
	if err != nil && res.Fault == nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatalf("the first window of %s did not cover the snapshot at cycle %d", power, s.m.Cycles())
	}
	return r.observe(res)
}

func straight(t *testing.T, spec replay.Spec, img *tics.Image, power string) observed {
	t.Helper()
	r := newSnapRun(t, spec, img, power)
	res, _ := r.m.Run()
	return r.observe(res)
}

func sameRun(t *testing.T, what string, got, want observed) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result\n got %+v\nwant %+v", what, got.res, want.res)
	}
	if got.stream != want.stream {
		t.Fatalf("%s: event stream SHA-256 %s, want %s", what, got.stream, want.stream)
	}
	if !slices.Equal(got.mem, want.mem) {
		t.Fatalf("%s: memory differs", what)
	}
	if !reflect.DeepEqual(got.profile, want.profile) {
		t.Fatalf("%s: profile differs", what)
	}
	if got.metrics != want.metrics {
		t.Fatalf("%s: metrics\n got %s\nwant %s", what, got.metrics, want.metrics)
	}
}

// checkResumes cuts a continuous run of spec at random instruction
// boundaries and checks that each snapshot, resumed, finishes exactly as
// the straight run did, and that resumed under a schedule whose first
// window ends at or after the snapshot it finishes exactly as a cold run
// of that schedule. It returns how many snapshots the run took.
func checkResumes(t *testing.T, spec replay.Spec, img *tics.Image, rng *rand.Rand) int {
	t.Helper()
	want := straight(t, spec, img, "continuous")
	cuts := make([]int64, 6)
	for i := range cuts {
		cuts[i] = 1 + rng.Int64N(want.res.Cycles)
	}
	slices.Sort(cuts)
	snaps, hooked := takeSnapshots(t, spec, img, "continuous", cuts)
	sameRun(t, "run with snapshot hook", hooked, want)
	for _, s := range snaps {
		sameRun(t, fmt.Sprintf("resumed at cycle %d", s.m.Cycles()), resume(t, spec, img, "continuous", s), want)
		power := fmt.Sprintf("sched:%d@20", s.m.Cycles()+rng.Int64N(3000))
		sameRun(t, fmt.Sprintf("resumed at cycle %d under %s", s.m.Cycles(), power),
			resume(t, spec, img, power, s), straight(t, spec, img, power))
	}
	return len(snaps)
}

// TestSnapshotResume: for every runtime on shipped programs, a snapshot
// taken at a random instruction boundary and resumed — in the same
// continuous window, or in a schedule's first window — ends in the
// straight run's Result, event stream, memory, profile and metrics.
func TestSnapshotResume(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	for _, app := range []string{"cf", "ar", "ghm"} {
		for _, rt := range tics.Runtimes() {
			spec := replay.Spec{App: app, Runtime: string(rt), TimerMs: 2, WallMs: 40, Seed: 1, Virtualize: true}
			img, _, err := replay.BuildImage(spec)
			if err != nil {
				continue // no task port, or a runtime the program cannot build for
			}
			t.Run(app+"/"+string(rt), func(t *testing.T) {
				if n := checkResumes(t, spec, img, rng); n == 0 {
					t.Fatal("the run took no snapshots")
				}
			})
		}
	}
	// TICS logging whole blocks once per epoch keeps a dedup set.
	app, _ := apps.ByName("cf")
	img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: tics.RTTICS, UndoBlockBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cf/tics-block16", func(t *testing.T) {
		spec := replay.Spec{Runtime: "tics", TimerMs: 2, WallMs: 40, Seed: 1, Virtualize: true}
		if n := checkResumes(t, spec, img, rng); n == 0 {
			t.Fatal("the run took no snapshots")
		}
	})
}

// TestSnapshotCarriesRemanence: a remanence clock draws each outage's
// estimate from its own generator, and the machine adds it to the clock
// estimate in its run state. Snapshots taken after several outages of a
// fail:20000 run of ar, whose windows are all alike, resume under the
// same power into the straight run: the same off-time estimates, so the
// same expiries, event stream (every event stamped with the device
// clock), sends and result.
func TestSnapshotCarriesRemanence(t *testing.T) {
	const power = "fail:20000"
	spec := replay.Spec{App: "ar", Runtime: "tics", Clock: "remanence:0.5,5000", TimerMs: 2, WallMs: 1500, Seed: 1}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := straight(t, spec, img, power)
	if want.res.Failures < 8 {
		t.Fatalf("the straight run failed %d times; the test needs outages before and after each snapshot", want.res.Failures)
	}
	c := want.res.Cycles
	snaps, hooked := takeSnapshots(t, spec, img, power, []int64{c / 4, c / 2, 3 * c / 4})
	sameRun(t, "run with snapshot hook", hooked, want)
	if len(snaps) != 3 {
		t.Fatalf("took %d snapshots, want 3", len(snaps))
	}
	for _, s := range snaps {
		sameRun(t, fmt.Sprintf("resumed at cycle %d", s.m.Cycles()), resume(t, spec, img, power, s), want)
	}
}

// TestSnapshotRemainingRule: a run that reads Remaining() — Mementos
// gating its trigger checkpoints on the voltage proxy — depends on its
// window, so it takes no snapshot from the first read on. Its boot reads
// it, so no snapshot is taken at all, and every schedule starts cold.
func TestSnapshotRemainingRule(t *testing.T) {
	app, _ := apps.ByName("cf")
	img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: tics.RTMementos, VoltageThresholdCycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	spec := replay.Spec{Runtime: "mementos", WallMs: 40, Seed: 1}
	if n := checkResumes(t, spec, img, rand.New(rand.NewPCG(21, 2))); n != 0 {
		t.Fatalf("took %d snapshots after the boot read Remaining()", n)
	}
}

// TestSnapshotRefusesALateWindow: RunFrom refuses a snapshot its first
// window ends before, and boots cold inside that window instead: the run
// is the straight run of the same power.
func TestSnapshotRefusesALateWindow(t *testing.T) {
	spec := replay.Spec{App: "cf", Runtime: "tics", TimerMs: 2, WallMs: 40, Seed: 1}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		t.Fatal(err)
	}
	const power = "sched:5000@20"
	snaps, _ := takeSnapshots(t, spec, img, "continuous", []int64{4_000, 10_000})
	r := newSnapRun(t, spec, img, power)
	res, err := r.m.RunFrom([]*vm.Snapshot{snaps[1].m}, func(int) {
		t.Fatal("restored a snapshot past the first window")
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "refused snapshot", r.observe(res), straight(t, spec, img, power))
	// The earlier snapshot fits, and is the one picked.
	if got := resume(t, spec, img, power, snaps[0]); !reflect.DeepEqual(got.res, res) {
		t.Fatalf("resumed at cycle %d: %+v, want %+v", snaps[0].m.Cycles(), got.res, res)
	}
}
