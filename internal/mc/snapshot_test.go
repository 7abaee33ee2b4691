package mc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/replay"
)

// level is one depth level of a sweep as the observe hook saw it.
type level struct {
	schedules [][]power.SchedWindow
	outcomes  []runOutcome
}

// TestSnapshotSweepMatchesCold is the differential test of prefix
// sharing: for every shipped app under every runtime it can build for, at
// depth 1 and at capped depth 2, with one and two workers, a sweep whose
// schedules resume from oracle snapshots equals a sweep that boots every
// schedule cold — the same report JSON, and per schedule the same result
// digest, violations, stale sends, committed observables, globals and
// cycle stamps past the schedule's reboots (the ones enumeration uses).
func TestSnapshotSweepMatchesCold(t *testing.T) {
	max := 24
	if testing.Short() || raceDetector {
		max = 12
	}
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	names = append(names, "swap", "bubble", "timekeeping", "bc-norec")
	resumedTotal := 0
	for _, app := range names {
		for _, rt := range tics.Runtimes() {
			spec := replay.Spec{App: app, Runtime: string(rt), TimerMs: 2, WallMs: 40, Seed: 1, Virtualize: true}
			if _, _, err := replay.BuildImage(spec); err != nil {
				continue // no task port, or a runtime the program cannot build for
			}
			t.Run(app+"/"+string(rt), func(t *testing.T) {
				resumedTotal += checkSnapshotSweep(t, Config{Spec: spec, MaxSchedules: max})
			})
		}
	}
	if resumedTotal == 0 {
		t.Fatal("no schedule resumed from a snapshot: the comparison is vacuous")
	}
}

// TestSnapshotSweepMatchesColdSeeded runs the same comparison on the
// seeded ticsvet corpus, whose schedules do fail: findings, with the
// event ordinals in their details, must not move either.
func TestSnapshotSweepMatchesColdSeeded(t *testing.T) {
	findings := 0
	for _, sc := range Scenarios() {
		t.Run(sc.File, func(t *testing.T) {
			cfg := scenarioConfigFor(t, sc.File)
			cfg.MaxSchedules = 48
			checkSnapshotSweep(t, cfg)
			rep, err := Sweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			findings += len(rep.Findings)
		})
	}
	if findings == 0 {
		t.Fatal("no seeded sweep found anything: the comparison is vacuous")
	}
}

// checkSnapshotSweep compares snapshot-resumed sweeps of base against a
// cold one at depth 1 and 2, with one and two workers, and returns how
// many schedules resumed.
func checkSnapshotSweep(t *testing.T, base Config) int {
	t.Helper()
	total := 0
	for _, depth := range []int{1, 2} {
		cfg := base
		cfg.Depth, cfg.Workers = depth, 1
		cold, coldLevels := sweepLevels(t, cfg, true)
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			what := fmt.Sprintf("depth %d, %d workers", depth, workers)
			if got, _ := sweepLevels(t, cfg, true); got != cold {
				t.Fatalf("%s: cold report differs from one worker's", what)
			}
			got, levels := sweepLevels(t, cfg, false)
			if got != cold {
				t.Fatalf("%s: report\n got %s\nwant %s", what, got, cold)
			}
			resumed := sameLevels(t, what, levels, coldLevels)
			total += resumed
			var rep Report
			if err := json.Unmarshal([]byte(got), &rep); err != nil {
				t.Fatal(err)
			}
			if len(levels) > 0 && worthSnapshots(levels[0].schedules, rep.Oracle.Cycles) && resumed == 0 {
				t.Fatalf("%s: snapshots were worth taking, yet no schedule resumed from one", what)
			}
		}
	}
	return total
}

// sweepLevels runs cfg cold or from snapshots and returns its report
// JSON and every level's schedules and outcomes.
func sweepLevels(t *testing.T, cfg Config, cold bool) (string, []level) {
	t.Helper()
	var levels []level
	rep, err := sweep(cfg, cold, func(s [][]power.SchedWindow, o []runOutcome) {
		levels = append(levels, level{s, o})
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), levels
}

// sameLevels compares two sweeps schedule by schedule and returns how
// many of got's schedules resumed from a snapshot.
func sameLevels(t *testing.T, what string, got, want []level) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", what, len(got), len(want))
	}
	resumed := 0
	for d := range got {
		if !reflect.DeepEqual(got[d].schedules, want[d].schedules) {
			t.Fatalf("%s: depth %d enumerated different schedules", what, d+1)
		}
		for i, sched := range got[d].schedules {
			g, w := got[d].outcomes[i], want[d].outcomes[i]
			if w.resumedAt != 0 {
				t.Fatalf("%s: cold schedule %v resumed", what, sched)
			}
			if g.resumedAt > 0 {
				resumed++
				if g.resumedAt > sched[0].Cycles {
					t.Fatalf("%s: schedule %v resumed from a snapshot at cycle %d, past its first reboot", what, sched, g.resumedAt)
				}
			}
			at := fmt.Sprintf("%s: schedule %v (resumed at %d)", what, sched, g.resumedAt)
			if g.digest != w.digest {
				t.Fatalf("%s: digest %+v, want %+v", at, g.digest, w.digest)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"violations", g.violations, w.violations},
				{"stale sends", g.stale, w.stale},
				{"send seqs", g.sendSeqs, w.sendSeqs},
				{"send values", g.sendVals, w.sendVals},
				{"globals", g.globals, w.globals},
				{"outs", g.outs, w.outs},
				{"marks", g.marks, w.marks},
				{"cycles", g.cycles, w.cycles},
				{"stamps past the reboots", pastReboots(g.stamps, sched), pastReboots(w.stamps, sched)},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s: %s\n got %v\nwant %v", at, f.name, f.got, f.want)
				}
			}
		}
	}
	return resumed
}

// pastReboots keeps the stamps after the cycles the schedule's windows
// consume: the only ones boundariesFrom enumerates from.
func pastReboots(stamps []int64, sched []power.SchedWindow) []int64 {
	end := windowsEnd(sched)
	i, _ := slices.BinarySearch(stamps, end+1)
	return stamps[i:]
}
