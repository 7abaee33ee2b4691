package experiments

import (
	"fmt"
	"strings"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/replay"
)

// AblationPoint is one configuration's outcome in an ablation sweep.
type AblationPoint struct {
	Study       string
	Config      string
	Cycles      int64
	Checkpoints int64
	Extra       map[string]int64
}

// Ablations renders the design-choice studies DESIGN.md calls out, as
// tables (the benchmark forms live in bench_test.go):
//
//   - working-stack segment size (the S1/S2 trade-off) on BC,
//   - checkpoint placement policy on CF,
//   - undo-log granularity (word vs block+dedup) on CF,
//   - fixed vs differential checkpoints on BC,
//   - persistent-clock error model vs AR freshness decisions.
func Ablations() (Report, error) {
	var points []AblationPoint
	var b strings.Builder
	b.WriteString("Ablations — the design choices behind TICS, isolated.\n")

	record := func(study, config string, cycles, cps int64, extra map[string]int64) {
		points = append(points, AblationPoint{Study: study, Config: config, Cycles: cycles, Checkpoints: cps, Extra: extra})
	}

	// runIntermittent runs spec to completion with a reboot every failK
	// cycles and a 10 ms outage after each.
	runIntermittent := func(spec replay.Spec, failK int64) (int64, int64, error) {
		spec.Power, spec.Seed, spec.MaxCycles = fmt.Sprintf("fail:%d,10", failK), 3, 500_000_000
		_, m, err := machine(spec, nil, nil)
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Run()
		if err != nil {
			return 0, 0, err
		}
		if !res.Completed {
			return 0, 0, fmt.Errorf("did not complete (starved=%v)", res.Starved)
		}
		return res.Cycles, res.TotalCheckpoints, nil
	}

	// --- Segment size (BC, intermittent) ---
	b.WriteString("\n[segment size] BC under fail-every-30k cycles (+10 ms timer)\n")
	tbl := &table{header: []string{"segment (B)", "cycles", "checkpoints"}}
	prog, err := tics.Compile(apps.BC().Source)
	if err != nil {
		return Report{}, err
	}
	for _, seg := range []int{prog.MinSegmentBytes(), 128, 256, 512} {
		cycles, cps, err := runIntermittent(replay.Spec{App: "bc", Runtime: string(tics.RTTICS),
			Segment: seg, StackBytes: 2048, TimerMs: 10}, 30_000)
		if err != nil {
			return Report{}, fmt.Errorf("segment %d: %w", seg, err)
		}
		record("segment-size", fmt.Sprintf("%dB", seg), cycles, cps, nil)
		tbl.add(fmt.Sprintf("%d", seg), fmt.Sprintf("%d", cycles), fmt.Sprintf("%d", cps))
	}
	b.WriteString(tbl.String())

	// --- Checkpoint placement policy (CF) ---
	b.WriteString("\n[checkpoint policy] CF under fail-every-25k cycles\n")
	tbl = &table{header: []string{"policy", "cycles", "checkpoints"}}
	for _, c := range []struct {
		name    string
		kind    tics.RuntimeKind
		segment int
		timerMs float64
	}{
		{"stack-change only", tics.RTTICS, 0, 0},
		{"timer only (512B seg)", tics.RTTICS, 512, 10},
		{"stack-change + timer", tics.RTTICS, 0, 10},
		{"task-boundary (ST)", tics.RTTICSTask, 512, 10},
	} {
		cycles, cps, err := runIntermittent(replay.Spec{App: "cf", Runtime: string(c.kind),
			Segment: c.segment, StackBytes: 2048, TimerMs: c.timerMs}, 25_000)
		if err != nil {
			return Report{}, fmt.Errorf("policy %s: %w", c.name, err)
		}
		record("checkpoint-policy", c.name, cycles, cps, nil)
		tbl.add(c.name, fmt.Sprintf("%d", cycles), fmt.Sprintf("%d", cps))
	}
	b.WriteString(tbl.String())

	// --- Undo-log granularity (CF, continuous: isolates logging cost) ---
	b.WriteString("\n[undo granularity] CF, continuous power (+10 ms timer)\n")
	tbl = &table{header: []string{"block", "cycles", "logged stores", "dedup hits"}}
	for _, block := range []int{4, 16, 32} {
		_, m, err := machine(replay.Spec{App: "cf", Runtime: string(tics.RTTICS), Seed: 1,
			Segment: 512, StackBytes: 2048, UndoBlockBytes: block, TimerMs: 10}, nil, nil)
		if err != nil {
			return Report{}, err
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			return Report{}, fmt.Errorf("block %d: %v %+v", block, err, res.Completed)
		}
		extra := map[string]int64{
			"logged": res.RuntimeStats["stores-logged"],
			"dedup":  res.RuntimeStats["stores-block-hit"],
		}
		record("undo-granularity", fmt.Sprintf("%dB", block), res.Cycles, res.TotalCheckpoints, extra)
		tbl.add(fmt.Sprintf("%d B", block), fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", extra["logged"]), fmt.Sprintf("%d", extra["dedup"]))
	}
	b.WriteString(tbl.String())
	b.WriteString("(bigger blocks: a hot global pays the 308-cycle logging cost once per epoch)\n")

	// --- Fixed vs differential checkpoints (BC, intermittent) ---
	b.WriteString("\n[differential checkpoints] BC, 512B segments, fail-every-30k (+5 ms timer)\n")
	tbl = &table{header: []string{"mode", "cycles", "checkpoints"}}
	for _, diff := range []bool{false, true} {
		name := "fixed (whole segment)"
		if diff {
			name = "differential (used tail)"
		}
		cycles, cps, err := runIntermittent(replay.Spec{App: "bc", Runtime: string(tics.RTTICS),
			Segment: 512, StackBytes: 2048, DifferentialCheckpoints: diff, TimerMs: 5}, 30_000)
		if err != nil {
			return Report{}, fmt.Errorf("differential=%v: %w", diff, err)
		}
		record("differential", name, cycles, cps, nil)
		tbl.add(name, fmt.Sprintf("%d", cycles), fmt.Sprintf("%d", cps))
	}
	b.WriteString(tbl.String())
	b.WriteString("(differential is cheaper on shallow stacks but forfeits the fixed worst-case bound)\n")

	// --- Timekeeper error model (AR freshness decisions) ---
	b.WriteString("\n[timekeeper] AR on harvested power: committed freshness decisions per clock\n")
	tbl = &table{header: []string{"clock", "fresh windows", "stale discarded"}}
	// The remanence timer draws its error from seed 3; power and sensors
	// use seed 8 (Fig 8's harvest).
	spec := replay.Spec{App: "ar", Runtime: string(tics.RTTICS), Power: "harvest:40000,450", Seed: 8, TimerMs: 10}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		return Report{}, err
	}
	for _, c := range []struct{ name, clock string }{
		{"perfect", "perfect"},
		{"rtc 10 ms", "rtc:10"},
		{"remanence ±10%", "remanence:0.1,5000,3"},
		{"remanence ±50%", "remanence:0.5,5000,3"},
	} {
		spec.Clock = c.clock
		m, err := spec.Machine(img, nil, nil, nil)
		if err != nil {
			return Report{}, err
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			return Report{}, fmt.Errorf("clock %s: %v", c.name, err)
		}
		fresh, stale := at(res.MarkCounts, 3), at(res.MarkCounts, 4)
		record("timekeeper", c.name, res.Cycles, res.TotalCheckpoints,
			map[string]int64{"fresh": fresh, "stale": stale})
		tbl.add(c.name, fmt.Sprintf("%d", fresh), fmt.Sprintf("%d", stale))
	}
	b.WriteString(tbl.String())
	b.WriteString("(a sloppy remanence timer misjudges outages, flipping freshness verdicts)\n")

	return Report{
		ID:    "ablations",
		Title: "Design-choice ablation studies",
		Text:  b.String(),
		Data:  map[string]any{"points": points},
	}, nil
}
