package mc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/replay"
)

const seededDir = "../../testdata/vet/seeded"

// quickstartSrc mirrors examples/quickstart — the annotated sensing loop
// the repo's documentation leads with.
const quickstartSrc = `
#define ROUNDS 20

@expires_after=300 int reading;
int checksum;

int main() {
    int i;
    for (i = 0; i < ROUNDS; i++) {
        reading @= sense(4);
        @expires(reading) {
            checksum = checksum * 31 + reading;
            mark(0);
        } catch {
            mark(1);
        }
    }
    out(0, checksum);
    return 0;
}
`

// shippedSpecs enumerates every shipped program under the runtime that
// protects it: the TICS-C sources under tics, the task ports under
// alpaca/mayfly. These are the programs the checker must verify clean.
func shippedSpecs() []struct {
	label string
	spec  replay.Spec
} {
	var specs []struct {
		label string
		spec  replay.Spec
	}
	add := func(label string, spec replay.Spec) {
		specs = append(specs, struct {
			label string
			spec  replay.Spec
		}{label, spec})
	}
	for _, a := range apps.All() {
		// The health monitors sense forever; bound them by wall time.
		wall := 0.0
		if a.Name == "ghm" || a.Name == "ghm-tinyos" {
			wall = 40
		}
		add(a.Name, replay.Spec{App: a.Name, Runtime: "tics", TimerMs: 2, Virtualize: true, WallMs: wall})
		if a.ManualSource != "" {
			add(a.Name+"-manual", replay.Spec{Source: a.ManualSource, Runtime: "tics", TimerMs: 2, Virtualize: true, WallMs: wall})
		}
		if a.TaskSource != "" {
			add(a.Name+"-task", replay.Spec{App: a.Name, Runtime: "alpaca", TimerMs: 2, Virtualize: true, WallMs: wall})
		}
		if a.MayflyTaskSource != "" {
			add(a.Name+"-mayfly", replay.Spec{App: a.Name, Runtime: "mayfly", TimerMs: 2, Virtualize: true, WallMs: wall})
		}
	}
	for _, name := range []string{"swap", "bubble", "timekeeping", "bc-norec"} {
		if a, ok := apps.ByName(name); ok {
			add(a.Name, replay.Spec{Source: a.Source, Runtime: "tics", TimerMs: 2, Virtualize: true})
		}
	}
	add("quickstart", replay.Spec{Source: quickstartSrc, Runtime: "tics", TimerMs: 2, Virtualize: true})
	return specs
}

// TestSweepShippedProgramsClean is the positive half of the ground truth:
// every program the repo ships, under its protecting runtime, survives a
// depth-1 reset-point sweep with zero findings — no rollback divergence,
// no double send, no stale payload, at any enumerated reboot point.
func TestSweepShippedProgramsClean(t *testing.T) {
	maxSchedules := 200
	if testing.Short() || raceDetector {
		maxSchedules = 48
	}
	specs := shippedSpecs()
	if len(specs) != 15 {
		t.Fatalf("shipped program census drifted: got %d, want 15", len(specs))
	}
	for _, p := range specs {
		t.Run(p.label, func(t *testing.T) {
			rep, err := Sweep(Config{Spec: p.spec, Workers: runtime.GOMAXPROCS(0), MaxSchedules: maxSchedules})
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if rep.Schedules == 0 {
				t.Fatalf("sweep explored no schedules (boundaries=%d)", rep.Boundaries)
			}
			if !rep.Clean() {
				t.Fatalf("shipped program has a counterexample: %s", rep.Counterexample())
			}
		})
	}
}

// TestSweepWorkerIndependence pins the determinism contract: the report —
// findings, ordering, counters — is byte-identical whether one worker or
// four swept the schedules.
func TestSweepWorkerIndependence(t *testing.T) {
	for _, file := range []string{"stale_send.c", "war.c"} {
		t.Run(file, func(t *testing.T) {
			var reports [][]byte
			for _, workers := range []int{1, 4} {
				cfg := scenarioConfigFor(t, file)
				cfg.Workers = workers
				rep, err := Sweep(cfg)
				if err != nil {
					t.Fatalf("sweep with %d workers: %v", workers, err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, b)
			}
			if string(reports[0]) != string(reports[1]) {
				t.Errorf("report differs between 1 and 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", reports[0], reports[1])
			}
		})
	}
}

// scenarioConfigFor loads the seeded scenario for file with its source
// filled in.
func scenarioConfigFor(t *testing.T, file string) Config {
	t.Helper()
	for _, sc := range Scenarios() {
		if sc.File == file {
			src := readSeeded(t, file)
			cfg := sc.Config
			cfg.Spec.Source = src
			return cfg
		}
	}
	t.Fatalf("no scenario for %s", file)
	return Config{}
}

func readSeeded(t *testing.T, file string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(seededDir, file))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepDepthTwo explores reboot pairs: the first reboot's interrupted
// run seeds the second's boundaries. A protected program must survive
// both; the report must record the deeper exploration.
func TestSweepDepthTwo(t *testing.T) {
	if a, ok := apps.ByName("swap"); ok {
		rep, err := Sweep(Config{
			Spec:         replay.Spec{Source: a.Source, Runtime: "tics", TimerMs: 2, Virtualize: true},
			Depth:        2,
			Workers:      runtime.GOMAXPROCS(0),
			MaxSchedules: 300,
		})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if rep.Depth != 2 {
			t.Fatalf("depth not recorded: %d", rep.Depth)
		}
		if rep.Schedules <= rep.Boundaries {
			t.Fatalf("depth 2 explored nothing beyond depth 1: %d schedules, %d boundaries", rep.Schedules, rep.Boundaries)
		}
		if !rep.Clean() {
			t.Fatalf("swap has a depth-2 counterexample: %s", rep.Counterexample())
		}
	} else {
		t.Fatal("swap app missing")
	}
}

// TestCrossCheckSeeded is the negative half of the ground truth: every
// seeded ticsvet diagnostic corresponds to a concrete failing schedule,
// minimized into a manifest that re-verifies byte-identically under
// internal/replay.
func TestCrossCheckSeeded(t *testing.T) {
	if raceDetector {
		// ~12k schedules; the concurrency paths are already raced by
		// TestSweepWorkerIndependence, and CI's mc smoke runs this full
		// correlation without the detector.
		t.Skip("cross-check corpus is too expensive under the race detector")
	}
	results, err := CrossCheck(seededDir, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Scenarios()) {
		t.Fatalf("expected %d results, got %d", len(Scenarios()), len(results))
	}
	for _, r := range results {
		t.Run(r.File, func(t *testing.T) {
			if !r.Ok() {
				t.Fatalf("cross-check failed: diagnosed=%v finding=%v replayOK=%v err=%s",
					r.Diagnosed, r.Finding, r.ReplayOK, r.Err)
			}
			if r.Manifest == nil {
				t.Fatal("no counterexample manifest")
			}
			if r.Manifest.PowerName != r.Finding.Power {
				t.Fatalf("manifest power %q does not match finding power %q", r.Manifest.PowerName, r.Finding.Power)
			}
		})
	}
}

// TestCounterexampleRoundTrip re-records one finding's manifest and
// replays it from the manifest alone, the way a bug report would travel.
func TestCounterexampleRoundTrip(t *testing.T) {
	cfg := scenarioConfigFor(t, "stale_send.c")
	cfg.Workers = runtime.GOMAXPROCS(0)
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Counterexample()
	if f == nil {
		t.Fatal("no counterexample for seeded stale_send.c")
	}
	man, rec, err := Counterexample(cfg.Spec, *f)
	if err != nil {
		t.Fatal(err)
	}
	if man.PowerName != f.Power {
		t.Fatalf("manifest power %q, finding power %q", man.PowerName, f.Power)
	}
	if rec == nil || len(rec.Events) == 0 {
		t.Fatal("counterexample recording captured no events")
	}
	run, err := replay.Replay(man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.VerifyReplay(man, run); err != nil {
		t.Fatalf("counterexample did not re-verify: %v", err)
	}
}

// TestBoundariesFrom pins the boundary enumeration: stamps map to the
// window lengths {S-base-1, S-base}, clipped, deduplicated, sorted, and
// appended to dst. Randomized nondecreasing stamps — runs of duplicates,
// adjacent cycles, stamps at and below a non-zero base, at and past the
// total — must match the map-and-sort reference.
func TestBoundariesFrom(t *testing.T) {
	got := boundariesFrom(nil, []int64{5, 6, 100}, 0, 100)
	want := []int64{4, 5, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("boundariesFrom = %v, want %v", got, want)
	}
	// With a base, stamps at or before the base are dead.
	got = boundariesFrom([]int64{-7}, []int64{5, 50}, 10, 100)
	want = []int64{-7, 39, 40}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("boundariesFrom(base=10) appended %v, want %v", got, want)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		stamps := make([]int64, rng.IntN(40))
		s := rng.Int64N(20)
		for i := range stamps {
			switch rng.IntN(4) {
			case 0: // duplicate
			case 1:
				s++
			case 2:
				s += 2
			default:
				s += rng.Int64N(50)
			}
			stamps[i] = s
		}
		base := int64(0)
		if rng.IntN(2) == 0 {
			base = rng.Int64N(s + 2)
		}
		total := base + rng.Int64N(s-base+10)
		got := boundariesFrom(nil, stamps, base, total)
		want := boundariesRef(stamps, base, total)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stamps %v base %d total %d:\n got %v\nwant %v", stamps, base, total, got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order stamps must panic, not enumerate a wrong level")
		}
	}()
	boundariesFrom(nil, []int64{5, 4}, 0, 100)
}

// TestCappedDepthTwoGolden pins the capped depth-2 sweep ticsmc runs as
// `ticsmc -app ar -depth 2 -max-schedules 250 -wall 200 -seed 1 -json`:
// its level of 418,040 candidates is stride-sampled down to 250, and the
// report — boundaries, dropped, cycles explored, the oracle digest —
// must match the committed golden byte for byte.
func TestCappedDepthTwoGolden(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("500 full ar runs; CI's mc smoke compares the same golden")
	}
	want, err := os.ReadFile("../../testdata/mc/ar-d2.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(Config{
		Spec:         replay.Spec{App: "ar", Runtime: "tics", TimerMs: 2, Seed: 1, WallMs: 200, Virtualize: true},
		Depth:        2,
		Workers:      runtime.GOMAXPROCS(0),
		MaxSchedules: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("report differs from testdata/mc/ar-d2.json:\n%s", got.String())
	}
}

// TestSweepLogsOneLinePerDepth: with a Log set, each depth level reports
// its candidates, the schedules kept, and its elapsed time and rates —
// and the counts agree with the report.
func TestSweepLogsOneLinePerDepth(t *testing.T) {
	a, ok := apps.ByName("swap")
	if !ok {
		t.Fatal("swap app missing")
	}
	var lines []string
	rep, err := Sweep(Config{
		Spec:         replay.Spec{Source: a.Source, Runtime: "tics", TimerMs: 2, Virtualize: true},
		Depth:        2,
		Workers:      2,
		MaxSchedules: 50,
		Log:          func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("want one line per depth, got %q", lines)
	}
	candidates, kept := 0, 0
	for i, line := range lines {
		var depth, c, k int
		var ms, perSec, cyclesPerSec float64
		if _, err := fmt.Sscanf(line, "depth %d: %d candidates, %d kept, %g ms, %g schedules/s, %g simulated cycles/s",
			&depth, &c, &k, &ms, &perSec, &cyclesPerSec); err != nil || depth != i+1 {
			t.Fatalf("line %q: %v", line, err)
		}
		if i == 0 && c != rep.Boundaries {
			t.Fatalf("depth 1 logs %d candidates, report has %d boundaries", c, rep.Boundaries)
		}
		if ms < 0 || perSec <= 0 || cyclesPerSec <= 0 {
			t.Fatalf("line %q: implausible timing", line)
		}
		candidates += c
		kept += k
	}
	if kept != rep.Schedules || candidates-kept != rep.Dropped {
		t.Fatalf("logged %d candidates / %d kept; report has %d schedules, %d dropped", candidates, kept, rep.Schedules, rep.Dropped)
	}
}

// TestSweepVoltageGatedMementos sweeps Mementos with its voltage gate on,
// the configuration Table 2 runs, at depth 1. On BC the gate is clean.
// Table 2's exact build (AR's manual-time source, globals unversioned)
// rolls back only the stack and registers, so the sweep finds the
// unversioned globals' write-after-read hazards as rollback-exactness
// findings, and nothing else.
func TestSweepVoltageGatedMementos(t *testing.T) {
	maxSchedules := 600
	if testing.Short() || raceDetector {
		maxSchedules = 48
	}
	noVersion := false
	for _, c := range []struct {
		label string
		spec  replay.Spec
		kinds []string // the finding kinds, sorted
	}{
		{"bc", replay.Spec{App: "bc", Runtime: "mementos", VoltageThresholdCycles: 3000}, nil},
		{"ar-table2", replay.Spec{Source: apps.AR().ManualSource, Runtime: "mementos", VersionGlobals: &noVersion,
			VoltageThresholdCycles: 3000, TimerMs: 10, Seed: 42}, []string{"rollback-exactness"}},
	} {
		t.Run(c.label, func(t *testing.T) {
			rep, err := Sweep(Config{Spec: c.spec, Workers: runtime.GOMAXPROCS(0), MaxSchedules: maxSchedules})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Schedules != maxSchedules || len(rep.OracleFindings) != 0 {
				t.Fatalf("%d schedules (want %d), oracle findings %v", rep.Schedules, maxSchedules, rep.OracleFindings)
			}
			var kinds []string
			for _, f := range rep.Findings {
				if !slices.Contains(kinds, f.Kind) {
					kinds = append(kinds, f.Kind)
				}
			}
			slices.Sort(kinds)
			if !slices.Equal(kinds, c.kinds) {
				t.Fatalf("finding kinds %v, want %v (first: %v)", kinds, c.kinds, rep.Counterexample())
			}
		})
	}
}
