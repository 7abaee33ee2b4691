package vm_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/timekeeper"
	"repro/internal/vm"
)

// keepers builds each timekeeper kind afresh, started at a non-round
// estimate so that adds made in another order or as one sum would round
// differently.
var keepers = []struct {
	name string
	mk   func() timekeeper.Keeper
}{
	{"perfect", func() timekeeper.Keeper { return &timekeeper.Perfect{} }},
	{"rtc", func() timekeeper.Keeper { return &timekeeper.RTC{ResolutionMs: 0.7} }},
	{"remanence", func() timekeeper.Keeper { return timekeeper.NewRemanence(0.2, 5000, 3) }},
}

// chargeRig is a powered machine whose on-time and clock estimate already
// hold non-round values.
func chargeRig(t *testing.T, mk func() timekeeper.Keeper, profile bool) (*vm.Machine, *obs.Recorder) {
	t.Helper()
	var rec *obs.Recorder
	if profile {
		rec = obs.NewRecorder(obs.Options{Profile: true})
	}
	m, err := vm.New(vm.Config{Image: build(t, `int main() { return 0; }`), Clock: mk(), Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	m.ClockOff(1234.5678)
	m.PowerOn(1 << 40)
	for range 3 {
		m.Spend(7)
	}
	return m, rec
}

// sameCharges requires two machines to have charged identically: integer
// counters, the on-time and the clock estimate bit for bit, the clock
// reading, and the recorder's profile.
func sameCharges(t *testing.T, what string, a, b *vm.Machine, ra, rb *obs.Recorder) {
	t.Helper()
	if a.Cycles() != b.Cycles() || a.SinceCheckpoint() != b.SinceCheckpoint() || a.Remaining() != b.Remaining() {
		t.Fatalf("%s: cycles/since-checkpoint/remaining %d/%d/%d, want %d/%d/%d", what,
			a.Cycles(), a.SinceCheckpoint(), a.Remaining(), b.Cycles(), b.SinceCheckpoint(), b.Remaining())
	}
	if math.Float64bits(a.OnMs()) != math.Float64bits(b.OnMs()) {
		t.Fatalf("%s: on-time %v, want %v", what, a.OnMs(), b.OnMs())
	}
	if math.Float64bits(a.EstMs()) != math.Float64bits(b.EstMs()) || a.Now() != b.Now() {
		t.Fatalf("%s: clock estimate %v (now %d), want %v (now %d)", what, a.EstMs(), a.Now(), b.EstMs(), b.Now())
	}
	if ra != nil && !reflect.DeepEqual(ra.Profile(), rb.Profile()) {
		t.Fatalf("%s: profile\n got %+v\nwant %+v", what, ra.Profile(), rb.Profile())
	}
}

// TestSpendEachMatchesSpend: one spendEach(c, k) charges exactly what k
// Spend(c) calls charge, for every timekeeper, with and without a
// profiling recorder.
func TestSpendEachMatchesSpend(t *testing.T) {
	for _, kp := range keepers {
		for _, profile := range []bool{false, true} {
			for _, c := range []int64{1, 3, 7, 16, 33} {
				for _, k := range []int{0, 1, 2, 5, 73, 1000} {
					a, ra := chargeRig(t, kp.mk, profile)
					a.SpendEach(c, k)
					b, rb := chargeRig(t, kp.mk, profile)
					for range k {
						b.Spend(c)
					}
					sameCharges(t, fmt.Sprintf("%s profile=%v c=%d k=%d", kp.name, profile, c, k), a, b, ra, rb)
				}
			}
		}
	}
}

// copyOutcome is what a charged copy cut at some window leaves.
type copyOutcome struct {
	ending  string
	mem     []byte
	cycles  int64
	onMs    uint64
	stats   any
	private int
}

// cutCopy runs fn in a window of w cycles on a fresh machine forked from
// prep and records how it ended (done, power failure, or the panic it
// raised) and the state.
func cutCopy(t *testing.T, prep *vm.Prepared, w int64, fn func(m *vm.Machine)) copyOutcome {
	t.Helper()
	m, err := vm.New(vm.Config{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	m.PowerOn(1 << 40)
	m.Spend(13)
	for a := uint32(0x8000); a < 0x8c00; a += 4 {
		m.Mem.WriteWord(a, a*2654435761)
	}
	ending := func() (s string) {
		defer func() {
			if r := recover(); r != nil {
				s = fmt.Sprint(r)
			}
		}()
		if m.Powered(w, func() { fn(m) }) {
			return "power failure"
		}
		return "done"
	}()
	return copyOutcome{ending, m.Mem.Snapshot(), m.Cycles(), math.Float64bits(m.OnMs()), m.Mem.Stats(), m.Mem.PrivatePages()}
}

// wordLoop is the reference CopyCharged: one charge, one read and one
// write per word.
func wordLoop(m *vm.Machine, dst, src uint32, n int, passes int64) {
	c := passes * (m.Cost.NVReadPerWord + m.Cost.NVWritePerWord)
	for off := 0; off < n; off += 4 {
		m.Spend(c)
		m.Mem.WriteWord(dst+uint32(off), m.Mem.ReadWord(src+uint32(off)))
	}
}

// TestCopyChargedCutAtEveryCycle cuts CopyCharged at every cycle of the
// copy and requires the words copied, the cycle count, the on-time and
// the memory statistics the word loop leaves. The copies cover a
// Mementos-sized one, one across page boundaries of a forked memory, a
// ragged length, both overlapping directions and one running off the
// address space.
func TestCopyChargedCutAtEveryCycle(t *testing.T) {
	cases := []struct {
		name     string
		dst, src uint32
		n        int
		passes   int64
	}{
		{"mementos-sized", 0x9000, 0x8000, 73 * 4, 2},
		{"across-pages", 0xa3f0, 0x83f8, 300 * 4, 1},
		{"ragged", 0x9000, 0x8000, 10, 1},
		{"overlap-forward", 0x8004, 0x8000, 20 * 4, 1},
		{"overlap-backward", 0x8000, 0x8008, 20 * 4, 2},
		{"off-the-end", 0xffe0, 0x8000, 16 * 4, 1},
		{"empty", 0x9000, 0x8000, 0, 1},
	}
	app, _ := apps.ByName("cf")
	img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: tics.RTPlain})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := vm.Prepare(img.Image)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		full := cutCopy(t, prep, 1<<40, func(m *vm.Machine) { wordLoop(m, tc.dst, tc.src, tc.n, tc.passes) })
		spent := full.cycles - 13
		for w := int64(0); w <= spent+1; w++ {
			got := cutCopy(t, prep, w, func(m *vm.Machine) { m.CopyCharged(tc.dst, tc.src, tc.n, tc.passes) })
			want := cutCopy(t, prep, w, func(m *vm.Machine) { wordLoop(m, tc.dst, tc.src, tc.n, tc.passes) })
			if got.ending != want.ending || got.cycles != want.cycles || got.onMs != want.onMs ||
				!reflect.DeepEqual(got.stats, want.stats) || got.private != want.private || !slices.Equal(got.mem, want.mem) {
				t.Fatalf("%s cut at %d: got %q cycles %d on-time %x stats %+v private %d; word loop %q %d %x %+v %d (memory equal: %v)",
					tc.name, w, got.ending, got.cycles, got.onMs, got.stats, got.private,
					want.ending, want.cycles, want.onMs, want.stats, want.private, slices.Equal(got.mem, want.mem))
			}
		}
	}
}

// bitsOf lists every float a Result carries, as bits.
func bitsOf(r vm.Result) []uint64 {
	out := []uint64{math.Float64bits(r.OnMs), math.Float64bits(r.OffMs)}
	for _, s := range r.SendLog {
		out = append(out, math.Float64bits(s.TrueMs), math.Float64bits(s.EmitTrueMs))
	}
	return out
}

// sameBits requires equal Results with their floats equal bit for bit.
func sameBits(t *testing.T, what string, got, want vm.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) || !slices.Equal(bitsOf(got), bitsOf(want)) {
		t.Fatalf("%s: result\n got %+v\nwant %+v", what, got, want)
	}
}

// twoWays runs a machine twice, with straight-line runs and with every
// instruction single-stepped, and requires the same Result (floats bit
// for bit), event stream, memory, profile and metrics. With cuts it also
// takes a snapshot from a boundary hook at each, as the model checker
// does, and requires equal snapshots. It returns the Result.
func twoWays(t *testing.T, what string, mk func() snapRun, cuts []int64) vm.Result {
	t.Helper()
	var seen [2]observed
	var snaps [2][]*vm.Snapshot
	for i, single := range []bool{false, true} {
		r := mk()
		r.m.SetSingleStep(single)
		if len(cuts) > 0 {
			r.m.SetBoundaryHook(cuts[0], func(m *vm.Machine) int64 {
				snaps[i] = append(snaps[i], m.Snapshot())
				if n := len(snaps[i]); n < len(cuts) {
					return cuts[n]
				}
				return math.MaxInt64
			})
		}
		res, _ := r.m.Run()
		seen[i] = r.observe(res)
	}
	sameBits(t, what, seen[0].res, seen[1].res)
	sameRun(t, what, seen[0], seen[1])
	if len(snaps[0]) != len(snaps[1]) || !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("%s: %d and %d boundary-hook snapshots differ", what, len(snaps[0]), len(snaps[1]))
	}
	return seen[0].res
}

// straightSpecs are the power specs, each with its wall budget, and
// straightClocks the clocks the differential test crosses with every
// program and runtime. fail:20000 with a long budget lets data expire
// inside @expires blocks.
var (
	straightSpecs = []struct {
		power  string
		wallMs float64
	}{
		{"continuous", 60}, {"harvest:40000,800", 450}, {"fail:3000", 74.3},
		{"fail:700", 81.6}, {"duty:0.48", 88.9}, {"fail:20000", 1200},
	}
	straightClocks = []string{"perfect", "rtc:0.7", "remanence:0.2,5000"}
)

// TestStraightRunsMatchSingleStep runs every shipped program under every
// runtime it builds for and several power and clock specs — with timer
// checkpoints, a wall budget, a watchdog, virtualized sends and a
// boundary hook — once with straight-line runs and once single-stepped,
// and requires both to observe the same run.
func TestStraightRunsMatchSingleStep(t *testing.T) {
	for _, app := range apps.Every() {
		for _, rt := range tics.Runtimes() {
			base := replay.Spec{App: app.Name, Runtime: string(rt), Seed: 1}
			img, _, err := replay.BuildImage(base)
			if err != nil {
				continue // no task port, or a runtime the program cannot build for
			}
			for i, ps := range straightSpecs {
				spec := base
				spec.Power, spec.Clock = ps.power, straightClocks[i%len(straightClocks)]
				spec.TimerMs, spec.WallMs = 2, ps.wallMs
				spec.MaxCycles = 1_000_000 // bounds a starving run: off-times may be zero
				spec.Virtualize = i%2 == 1
				what := fmt.Sprintf("%s/%s %s %s", app.Name, rt, ps.power, spec.Clock)
				mk := func() snapRun { return newSnapRun(t, spec, img, ps.power) }
				twoWays(t, what, mk, []int64{3_001, 17_017, 40_000})
			}
			// A watchdog that fires mid-program, with no timer or wall.
			spec := base
			spec.MaxCycles = 25_013
			twoWays(t, fmt.Sprintf("%s/%s watchdog", app.Name, rt), func() snapRun {
				return newSnapRun(t, spec, img, "continuous")
			}, nil)
		}
	}
}

// TestStraightRunFaults: a fault inside a straight-line run — a zero
// divisor, a wild store, an access past the address space, a stack
// overflow — leaves the state single-stepping leaves, profile included.
func TestStraightRunFaults(t *testing.T) {
	for _, src := range []string{
		`int z; int g; int main() { g = 3; g = g * 7 + 5 / z; return g; }`,
		`int g; int main() { int *p; g = 2; p = 0; *p = g + 1; return 0; }`,
		`int a[2]; int main() { int *p; p = a; return p[20000] + 1; }`,
		`int rec(int n) { int pad[32]; pad[0] = n; return rec(n + 1) + pad[0]; }
int main() { return rec(0); }`,
	} {
		img := build(t, src)
		res := twoWays(t, src, func() snapRun {
			r := snapRun{rec: obs.NewRecorder(snapRecOpts), cap: &capture{}}
			r.rec.AddSink(r.cap)
			var err error
			if r.m, err = vm.New(vm.Config{Image: img, Recorder: r.rec}); err != nil {
				t.Fatal(err)
			}
			return r
		}, nil)
		if res.Fault == nil {
			t.Fatalf("%s: ran without a fault: %+v", src, res)
		}
	}
}

// isrSource keeps foreground straight-line work running while a timer
// interrupt updates a counter.
const isrSource = `
int ticks;
int work;

void isr_timer() {
    ticks++;
}

int main() {
    int i;
    for (i = 0; i < 1500; i++) {
        work += (i & 7) * 3 + (work >> 2);
    }
    out(0, work);
    out(1, ticks);
    return 0;
}
`

// TestStraightRunsWithInterrupts: a configured interrupt timer runs the
// same either way, on the plain runtime and on TICS.
func TestStraightRunsWithInterrupts(t *testing.T) {
	for _, rt := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS} {
		img, err := tics.Build(isrSource, tics.BuildOptions{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		for _, pw := range []string{"continuous", "fail:3000"} {
			mk := func() snapRun {
				src, err := replay.ParsePower(pw, 1)
				if err != nil {
					t.Fatal(err)
				}
				r := snapRun{rec: obs.NewRecorder(snapRecOpts), cap: &capture{}}
				r.rec.AddSink(r.cap)
				r.m, err = tics.NewMachine(img, tics.RunOptions{
					Power: src, AutoCpPeriodMs: 1, InterruptPeriodMs: 2, MaxCycles: 50_000_000, Recorder: r.rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			twoWays(t, fmt.Sprintf("isr/%s %s", rt, pw), mk, nil)
		}
	}
}
