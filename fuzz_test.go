package tics_test

import (
	"fmt"
	"reflect"
	"testing"

	tics "repro"
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
)

// FuzzTICSInvariants runs random programs on TICS under failure injection
// with the trace auditor attached: every run must complete, match the
// continuous-power oracle, and satisfy every audited invariant (rollback
// exactness, undo-log completeness, checkpoint atomicity).
func FuzzTICSInvariants(f *testing.F) {
	f.Add(int64(0), int64(23_000))
	f.Add(int64(3), int64(7_919))
	f.Add(int64(11), int64(50_021))
	f.Fuzz(func(t *testing.T, seed, k int64) {
		// Clamp the failure period to windows TICS can make progress in.
		if k < 0 {
			k = -k
		}
		k = 5_000 + k%95_000
		src := apps.Random(seed)
		oracle, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain}, tics.RunOptions{})
		if err != nil || !oracle.Completed {
			t.Fatalf("oracle: %v completed=%v\n%s", err, oracle.Completed, src)
		}
		img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		m, err := tics.NewMachine(img, tics.RunOptions{
			Power:          &power.FailEvery{Cycles: k, OffMs: 3},
			AutoCpPeriodMs: 2,
			MaxCycles:      500_000_000,
			Recorder:       obs.NewRecorder(obs.Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		aud, err := audit.Attach(m, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, src)
		}
		if !res.Completed {
			t.Fatalf("seed %d k=%d: incomplete (starved=%v)\n%s", seed, k, res.Starved, src)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d k=%d: diverged\n got  %v\n want %v\n%s",
				seed, k, res.OutLog, oracle.OutLog, src)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("seed %d k=%d: %v\n%s", seed, k, err, src)
		}
	})
}

// FuzzRecordReplay records random programs under randomized power models
// and requires every manifest to replay bit-identically.
func FuzzRecordReplay(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(5), uint8(1))
	f.Add(int64(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, powIdx uint8) {
		powers := []string{"fail:9973", "duty:0.48", "harvest:40000,800"}
		spec := replay.Spec{
			Source:    apps.Random(seed),
			Runtime:   "tics",
			Power:     powers[int(powIdx)%len(powers)],
			Clock:     "perfect",
			Seed:      uint64(seed)*2654435761 + 1,
			TimerMs:   2,
			MaxCycles: 500_000_000,
		}
		man, run, err := replay.Record(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		rerun, err := replay.Replay(man, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.VerifyReplay(man, rerun); err != nil {
			idx, _ := replay.FirstDivergence(run.Events, rerun.Events)
			t.Fatalf("seed %d power %s: %v (first divergence at event %d)",
				seed, spec.Power, err, idx)
		}
	})
}

// TestFuzzDifferential generates random programs and requires TICS and the
// naive checkpointer to commit exactly the oracle's output under failure
// injection — a broad-coverage complement to the hand-written torture
// programs.
func TestFuzzDifferential(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	for seed := int64(0); seed < int64(n); seed++ {
		src := apps.Random(seed)
		oracle, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain}, tics.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v\n%s", seed, err, src)
		}
		if !oracle.Completed {
			t.Fatalf("seed %d: oracle incomplete", seed)
		}
		// Optimizer equivalence: O0 must compute exactly what O2 does.
		o0, err := tics.Run(src, tics.BuildOptions{Runtime: tics.RTPlain, O0: true}, tics.RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: O0: %v\n%s", seed, err, src)
		}
		if !reflect.DeepEqual(o0.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d: O0 and O2 disagree\n got  %v\n want %v\n%s", seed, o0.OutLog, oracle.OutLog, src)
		}
		for _, cfg := range []tics.BuildOptions{
			{Runtime: tics.RTTICS},
			{Runtime: tics.RTTICS, UndoBlockBytes: 16},
			{Runtime: tics.RTTICS, SegmentBytes: 256, DifferentialCheckpoints: true},
			{Runtime: tics.RTMementos},
		} {
			img, err := tics.Build(src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: build: %v\n%s", seed, cfg.Runtime, err, src)
			}
			for _, k := range []int64{23_000, 7_919} {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          &power.FailEvery{Cycles: k, OffMs: 3},
					AutoCpPeriodMs: 2,
					MaxCycles:      500_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("seed %d %s k=%d: %v\n%s", seed, cfg.Runtime, k, err, src)
				}
				if !res.Completed {
					t.Fatalf("seed %d %s k=%d: incomplete (starved=%v)\n%s", seed, cfg.Runtime, k, res.Starved, src)
				}
				if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
					t.Fatalf("seed %d %s k=%d: diverged\n got  %v\n want %v\n%s",
						seed, cfg.Runtime, k, res.OutLog, oracle.OutLog, src)
				}
			}
		}
	}
}

// FuzzAnalysis throws arbitrary source at the ticsvet static analyzer:
// it must never panic or loop, and must either reject the input with a
// compile error or terminate with a sorted diagnostic list. Valid random
// programs from apps.Random additionally exercise every analysis pass on
// structurally rich inputs (nested loops, helper calls, arrays).
func FuzzAnalysis(f *testing.F) {
	f.Add("int main() { return 0; }")
	f.Add("@expires_after=100 int s;\nint main() { s @= sense(0); send(s); return 0; }")
	f.Add("int g;\nint r(int n) { if (n <= 0) { return 0; } return r(n - 1); }\nint main() { g = r(3); return 0; }")
	f.Add("int main() { @expires(") // truncated garbage
	f.Add(apps.Random(7))
	f.Fuzz(func(t *testing.T, src string) {
		diags, err := analysis.AnalyzeSource(src, analysis.Options{
			StackBytes:      256,
			GapBudgetCycles: 10_000,
		})
		if err != nil {
			// Rejected input still must render through the shared formatter.
			_ = analysis.FormatError("fuzz.c", err)
			return
		}
		for i, d := range diags {
			if d.Code == "" || d.Msg == "" {
				t.Fatalf("empty diagnostic %+v\n%s", d, src)
			}
			if i > 0 && (diags[i-1].Pos.Line > d.Pos.Line ||
				(diags[i-1].Pos.Line == d.Pos.Line && diags[i-1].Pos.Col > d.Pos.Col)) {
				t.Fatalf("diagnostics unsorted at %d\n%s", i, src)
			}
		}
	})
}

// FuzzResetPoint is the randomized shadow of the exhaustive reset-point
// model checker (internal/mc): where the checker enumerates every
// instrumentation boundary, the fuzzer throws a reboot at an *arbitrary*
// cycle — including mid-instruction boundaries the checker's stamp
// enumeration deliberately skips — and requires the same verdict the
// checker certifies for TICS: the run completes, the trace auditor stays
// silent, and committed output matches the continuous-power oracle. The
// schedule travels through its canonical "sched:C@OFF" power spec, so the
// fuzzer also pins the counterexample format the checker emits.
func FuzzResetPoint(f *testing.F) {
	f.Add(int64(0), uint32(4_000))
	f.Add(int64(7), uint32(77_000))
	f.Add(int64(13), uint32(1))
	f.Fuzz(func(t *testing.T, seed int64, cut uint32) {
		src := apps.Random(seed)
		img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		om, err := tics.NewMachine(img, tics.RunOptions{AutoCpPeriodMs: 2})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := om.Run()
		if err != nil || !oracle.Completed {
			t.Fatalf("oracle: %v completed=%v\n%s", err, oracle.Completed, src)
		}
		// Land the cut strictly inside the oracle's execution.
		c := 1 + int64(cut)%(oracle.Cycles-1)
		sched, err := power.ParseSchedule(fmt.Sprintf("sched:%d@20", c))
		if err != nil {
			t.Fatalf("canonical schedule spec did not parse: %v", err)
		}
		m, err := tics.NewMachine(img, tics.RunOptions{
			Power:          sched,
			AutoCpPeriodMs: 2,
			MaxCycles:      oracle.Cycles*4 + 1_000_000,
			Recorder:       obs.NewRecorder(obs.Options{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		aud, err := audit.Attach(m, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d cut=%d: %v\n%s", seed, c, err, src)
		}
		if !res.Completed {
			t.Fatalf("seed %d cut=%d: incomplete (starved=%v fault=%q)\n%s",
				seed, c, res.Starved, res.Fault, src)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("seed %d cut=%d: audit: %v\n%s", seed, c, err, src)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("seed %d cut=%d: diverged from oracle\n got  %v\n want %v\n%s",
				seed, c, res.OutLog, oracle.OutLog, src)
		}
	})
}
