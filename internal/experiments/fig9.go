package experiments

import (
	"fmt"
	"strings"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/replay"
)

// Fig9Point is one (app, configuration) performance measurement under
// continuous bench power, as in the paper's Figure 9.
type Fig9Point struct {
	App         string
	Config      string
	Cycles      int64
	Checkpoints int64
	Err         string
}

// OverheadVsPlain returns execution time normalized to the plain build.
func overhead(cycles, plain int64) string {
	if plain == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(cycles)/float64(plain))
}

// fig9Run runs spec to completion under continuous power.
func fig9Run(spec replay.Spec) (int64, int64, error) {
	spec.Seed, spec.MaxCycles = 3, 3_000_000_000
	// The flight recorder rides along (metrics only, tiny ring) so every
	// figure point is cross-checked against the recorded event stream.
	rec := obs.NewRecorder(obs.Options{RingCap: 16})
	_, m, err := machine(spec, nil, rec)
	if err != nil {
		return 0, 0, err
	}
	// The trace auditor rides along too: every figure point comes from a
	// run that provably kept rollback exactness, undo-log completeness and
	// checkpoint atomicity. Time consistency is only enforced for the
	// runtimes that claim it — Mementos and Chinchilla genuinely send
	// expired data on AR (the paper's Table 1), and this figure measures
	// their cycles anyway.
	rt := tics.RuntimeKind(spec.Runtime)
	claimsTime := rt == tics.RTTICS || rt == tics.RTTICSTask || rt == tics.RTMayFly
	aud, err := audit.Attach(m, audit.Options{CheckTime: &claimsTime})
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
	if got := rec.Metrics().Counter("checkpoint_commits"); got != res.TotalCheckpoints {
		return 0, 0, fmt.Errorf("flight recorder disagrees: %d commit events vs %d checkpoints counted", got, res.TotalCheckpoints)
	}
	if err := aud.Err(); err != nil {
		return 0, 0, err
	}
	return res.Cycles, res.TotalCheckpoints, nil
}

// Fig9 regenerates the three panels of Figure 9 on the AR, BC and CF
// benchmarks: (left) TICS vs Chinchilla across optimization levels;
// (center) the working-stack-size micro-benchmark (S1 = program-minimum
// segments, S2 = 512 B segments; the * variants add the 10 ms timer
// checkpoints); (right) TICS configurations against the naive
// checkpointer and the task-based systems, normalized to plain C.
func Fig9() (Report, error) {
	benches := []apps.App{apps.AR(), apps.BC(), apps.CF()}
	var points []Fig9Point
	record := func(app, config string, cycles, cps int64, err error) {
		p := Fig9Point{App: app, Config: config, Cycles: cycles, Checkpoints: cps}
		if err != nil {
			p.Err = err.Error()
		}
		points = append(points, p)
	}

	var b strings.Builder
	b.WriteString("Figure 9 — benchmark performance under continuous power (cycles; lower is better).\n")

	// Panel: TICS vs Chinchilla, O0 vs O2.
	b.WriteString("\n[left] TICS vs Chinchilla across optimization levels\n")
	tblL := &table{header: []string{"app", "TICS -O0", "TICS -O2", "Chinchilla -O0", "Chinchilla -O2"}}
	for _, app := range benches {
		row := []string{app.Name}
		for _, cfg := range []struct {
			kind tics.RuntimeKind
			o0   bool
		}{
			{tics.RTTICS, true}, {tics.RTTICS, false},
			{tics.RTChinchilla, true}, {tics.RTChinchilla, false},
		} {
			label := fmt.Sprintf("%s-O%d", cfg.kind, map[bool]int{true: 0, false: 2}[cfg.o0])
			cycles, cps, err := fig9Run(replay.Spec{App: app.Name, Runtime: string(cfg.kind), O0: cfg.o0, TimerMs: 10})
			record(app.Name, label, cycles, cps, err)
			if err != nil {
				row = append(row, "✗") // Chinchilla cannot run recursion (BC)
			} else {
				row = append(row, fmt.Sprintf("%d", cycles))
			}
		}
		tblL.add(row...)
	}
	b.WriteString(tblL.String())
	b.WriteString("(✗ = does not compile: Chinchilla rejects BC's recursion, §5.3.1)\n")

	// Panel: micro-benchmark over working-stack sizes.
	b.WriteString("\n[center] TICS working-stack size micro-benchmark\n")
	tblC := &table{header: []string{"app", "config", "segment (B)", "cycles", "checkpoints"}}
	for _, app := range benches {
		prog, err := tics.Compile(app.Source)
		if err != nil {
			return Report{}, err
		}
		s1 := prog.MinSegmentBytes()
		s2 := 512
		if s2 < s1 {
			s2 = s1 * 2
		}
		for _, cfg := range []struct {
			label string
			seg   int
			timer float64
		}{
			{"S1", s1, 0}, {"S2", s2, 0}, {"S1*", s1, 10}, {"S2*", s2, 10},
		} {
			cycles, cps, err := fig9Run(replay.Spec{App: app.Name, Runtime: string(tics.RTTICS),
				Segment: cfg.seg, StackBytes: 2048, TimerMs: cfg.timer})
			record(app.Name, "micro-"+cfg.label, cycles, cps, err)
			if err != nil {
				return Report{}, fmt.Errorf("%s %s: %w", app.Name, cfg.label, err)
			}
			tblC.add(app.Name, cfg.label, fmt.Sprintf("%d", cfg.seg),
				fmt.Sprintf("%d", cycles), fmt.Sprintf("%d", cps))
		}
	}
	b.WriteString(tblC.String())
	b.WriteString("(bigger segments -> fewer stack-change checkpoints, each more expensive)\n")

	// Panel: TICS vs task-based systems and the naive checkpointer.
	b.WriteString("\n[right] TICS vs task-based systems (normalized to plain C)\n")
	tblR := &table{header: []string{"app", "plain", "TICS S2*", "TICS ST", "naive", "Alpaca", "InK", "MayFly"}}
	for _, app := range benches {
		// The plain baseline runs the *legacy* program (the manual-time AR
		// variant), matching what the task ports implement.
		plain := replay.Spec{App: app.Name, Runtime: string(tics.RTPlain)}
		if app.ManualSource != "" {
			plain.App, plain.Source = "", app.ManualSource
		}
		plainCycles, _, err := fig9Run(plain)
		if err != nil {
			return Report{}, err
		}
		record(app.Name, "plain", plainCycles, 0, nil)
		row := []string{app.Name, fmt.Sprintf("%d", plainCycles)}

		cell := func(config string, cycles int64, err error) {
			record(app.Name, config, cycles, 0, err)
			if err != nil {
				row = append(row, "✗")
			} else {
				row = append(row, overhead(cycles, plainCycles))
			}
		}
		s2 := replay.Spec{App: app.Name, Runtime: string(tics.RTTICS), Segment: 512, StackBytes: 4096, TimerMs: 10}
		c, _, err := fig9Run(s2)
		cell("TICS-S2*", c, err)
		s2.Runtime = string(tics.RTTICSTask)
		c, _, err = fig9Run(s2)
		cell("TICS-ST", c, err)
		c, _, err = fig9Run(replay.Spec{App: app.Name, Runtime: string(tics.RTMementos)})
		cell("naive", c, err)
		for _, kind := range []tics.RuntimeKind{tics.RTAlpaca, tics.RTInK, tics.RTMayFly} {
			c, _, err = fig9Run(replay.Spec{App: app.Name, Runtime: string(kind)})
			cell(string(kind), c, err)
		}
		tblR.add(row...)
	}
	b.WriteString(tblR.String())
	b.WriteString("(✗ = cannot be expressed: MayFly rejects CF's cyclic task graph, §5.3)\n")

	return Report{
		ID:    "fig9",
		Title: "Benchmark performance",
		Text:  b.String(),
		Data:  map[string]any{"points": points},
	}, nil
}
