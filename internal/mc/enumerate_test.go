package mc

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/replay"
)

// boundariesRef is the map-and-sort boundary enumeration boundariesFrom
// replaced, kept as the reference it must agree with.
func boundariesRef(stamps []int64, base, total int64) []int64 {
	seen := map[int64]bool{}
	for _, s := range stamps {
		if s <= base || s >= total {
			continue
		}
		for _, c := range []int64{s - base - 1, s - base} {
			if c >= 1 {
				seen[c] = true
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// eagerLevel is the enumeration enumerate replaced, kept as its
// reference: build every candidate schedule of the level, then keep max
// of them with an even stride.
func eagerLevel(prefixes [][]power.SchedWindow, parents []runOutcome, offMs float64, max int) ([][]power.SchedWindow, int) {
	var all [][]power.SchedWindow
	for pi, parent := range parents {
		prefix := prefixes[pi]
		base := int64(0)
		for _, w := range prefix {
			base += w.Cycles
		}
		for _, c := range boundariesRef(parent.stamps, base, parent.cycles) {
			all = append(all, append(append([]power.SchedWindow{}, prefix...), power.SchedWindow{Cycles: c, OffMs: offMs}))
		}
	}
	if max <= 0 || len(all) <= max {
		return all, len(all)
	}
	out := make([][]power.SchedWindow, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, all[i*len(all)/max])
	}
	return out, len(all)
}

// runLevel executes schedules on r, collecting stamps, in order.
func runLevel(t *testing.T, r *runner, schedules [][]power.SchedWindow) []runOutcome {
	t.Helper()
	outs := make([]runOutcome, len(schedules))
	for i, s := range schedules {
		var err error
		if outs[i], err = r.run(s, false, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// oracleRunner builds a runner for spec and runs its oracle, applying the
// starvation bound Sweep applies before the first level, and takes the
// oracle's snapshots.
func oracleRunner(t *testing.T, spec replay.Spec) (*runner, runOutcome) {
	t.Helper()
	r, err := newRunner(Config{Spec: spec, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := r.run(nil, false, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.digest.Completed {
		r.cfg.Spec.MaxCycles = oracle.cycles*4 + 1_000_000
	}
	// Schedules resume from snapshots and so collect no stamp before
	// them; enumeration must not need those.
	if err := r.snapshotOracle(oracle); err != nil {
		t.Fatal(err)
	}
	return r, oracle
}

// TestLazyEnumerationMatchesEager: the strided lazy enumeration yields
// exactly the schedules — same windows, same order — and the same
// candidate count as building the whole level and striding it, for
// swap's depth-2 level under every interesting bound, with parents that
// have no candidates at the front, the middle and the back.
func TestLazyEnumerationMatchesEager(t *testing.T) {
	a, ok := apps.ByName("swap")
	if !ok {
		t.Fatal("swap app missing")
	}
	r, oracle := oracleRunner(t, replay.Spec{Source: a.Source, Runtime: "tics", TimerMs: 2, Virtualize: true})
	level1, _ := eagerLevel([][]power.SchedWindow{nil}, []runOutcome{oracle}, 20, 0)

	// A parent whose run ended before its prefix did has no candidates:
	// put one at the front, two in the middle and one at the back.
	var prefixes [][]power.SchedWindow
	var parents []runOutcome
	addEmpty := func() {
		prefixes = append(prefixes, []power.SchedWindow{{Cycles: 9, OffMs: 20}})
		parents = append(parents, runOutcome{stamps: []int64{1, 2, 3}, cycles: 3})
	}
	for i, out := range runLevel(t, r, level1) {
		switch i {
		case 0:
			addEmpty()
		case len(level1) / 2:
			addEmpty()
			addEmpty()
		}
		prefixes = append(prefixes, level1[i])
		parents = append(parents, out)
	}
	addEmpty()

	_, n := eagerLevel(prefixes, parents, 20, 0)
	if n < 100 {
		t.Fatalf("swap depth-2 level has only %d candidates", n)
	}
	for _, max := range []int{0, 1, 7, n - 1, n, n + 1} {
		want, wantN := eagerLevel(prefixes, parents, 20, max)
		got, gotN := enumerate(prefixes, parents, 20, max)
		if gotN != wantN {
			t.Fatalf("max=%d: %d candidates, eager counts %d", max, gotN, wantN)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("max=%d: lazy enumeration differs from eager:\n got %v\nwant %v", max, got, want)
		}
	}
}

// TestStampsNondecreasing pins the premise of boundariesFrom's linear
// dedup for every shipped program: the oracle's stamps, and those of its
// depth-1 interrupted runs, never go back in time.
func TestStampsNondecreasing(t *testing.T) {
	for _, p := range shippedSpecs() {
		t.Run(p.label, func(t *testing.T) {
			r, oracle := oracleRunner(t, p.spec)
			level1, _ := enumerate([][]power.SchedWindow{nil}, []runOutcome{oracle}, 20, 16)
			outs := append(runLevel(t, r, level1), oracle)
			for _, out := range outs {
				for i := 1; i < len(out.stamps); i++ {
					if out.stamps[i] < out.stamps[i-1] {
						t.Fatalf("stamp %d = %d follows %d", i, out.stamps[i], out.stamps[i-1])
					}
				}
			}
		})
	}
}
