package experiments

import (
	"fmt"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Table2Result bundles one AR run's violation tallies.
type Table2Result struct {
	TimelyBranch trace.Counts
	Misalignment trace.Counts
	Expiration   trace.Counts
	Completed    bool
	Failures     int
}

// add accumulates a second run's tallies.
func (t Table2Result) add(o Table2Result) Table2Result {
	t.TimelyBranch.Potential += o.TimelyBranch.Potential
	t.TimelyBranch.Observed += o.TimelyBranch.Observed
	t.Misalignment.Potential += o.Misalignment.Potential
	t.Misalignment.Observed += o.Misalignment.Observed
	t.Expiration.Potential += o.Expiration.Potential
	t.Expiration.Observed += o.Expiration.Observed
	t.Failures += o.Failures
	t.Completed = o.Completed
	return t
}

// runAR executes one AR variant with the violation detectors attached,
// on power that models the paper's RF-harvesting setup (Powercast
// transmitter, 10 µF storage capacitor): short powered bursts separated
// by recharge times that regularly exceed the 200 ms freshness window.
func runAR(spec replay.Spec, tsName string, seed uint64) (Table2Result, error) {
	spec.Power, spec.Seed, spec.TimerMs, spec.MaxCycles = "harvest:20000,90", seed, 10, 3_000_000_000
	// The detectors follow commits on the event stream; a one-slot ring
	// keeps the recorder itself negligible.
	img, m, err := machine(spec, nil, obs.NewRecorder(obs.Options{RingCap: 1}))
	if err != nil {
		return Table2Result{}, err
	}
	det, err := trace.Attach(m, img.Image, trace.Config{
		Pairs:       []trace.Pair{{DataName: "accel", TSName: tsName}},
		ConsumeMark: 3,
		FreshnessMs: 200,
		AlignMs:     50,
	})
	if err != nil {
		return Table2Result{}, err
	}
	res, err := m.Run()
	if err != nil {
		return Table2Result{}, err
	}
	det.Finish()
	timely, err := trace.CountDualBranches(m, img.Image, "timelyA", "timelyB")
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{
		TimelyBranch: timely,
		Misalignment: det.Misalign,
		Expiration:   det.Expired,
		Completed:    res.Completed,
		Failures:     res.Failures,
	}, nil
}

// Table2 reproduces the Table 2 experiment: the activity-recognition
// application run on harvested power, once with manual time management
// under MementOS-like checkpoints (the broken-consistency configuration a
// stack-and-registers checkpointer exhibits on FRAM globals) and once with
// TICS time annotations. The detectors of internal/trace count the three
// time-consistency violation classes of Figure 3(b)-(d).
func Table2() (Report, error) {
	// Aggregate several harvesting traces — the paper's numbers come from
	// a long wireless-powered deployment, not a single 30-round pass.
	seeds := []uint64{42, 43, 44, 45, 46, 47, 48, 49}
	noVersion := false
	var manual, withTICS Table2Result
	for _, seed := range seeds {
		man, err := runAR(replay.Spec{
			Source:                 apps.AR().ManualSource,
			Runtime:                string(tics.RTMementos),
			VersionGlobals:         &noVersion,
			VoltageThresholdCycles: 3000, // voltage-gated triggers, as Mementos does
		}, "ats", seed)
		if err != nil {
			return Report{}, fmt.Errorf("manual AR: %w", err)
		}
		manual = manual.add(man)
		tic, err := runAR(replay.Spec{App: "ar", Runtime: string(tics.RTTICS)}, "", seed)
		if err != nil {
			return Report{}, fmt.Errorf("annotated AR: %w", err)
		}
		withTICS = withTICS.add(tic)
	}

	tbl := &table{header: []string{"violation", "potential", "w/o TICS", "w/ TICS"}}
	tbl.add("Timely Branch",
		fmt.Sprintf("%d", manual.TimelyBranch.Potential),
		fmt.Sprintf("%d", manual.TimelyBranch.Observed),
		fmt.Sprintf("%d", withTICS.TimelyBranch.Observed))
	tbl.add("Time Misalignment",
		fmt.Sprintf("%d", manual.Misalignment.Potential),
		fmt.Sprintf("%d", manual.Misalignment.Observed),
		fmt.Sprintf("%d", withTICS.Misalignment.Observed))
	tbl.add("Data Expiration",
		fmt.Sprintf("%d", manual.Expiration.Potential),
		fmt.Sprintf("%d", manual.Expiration.Observed),
		fmt.Sprintf("%d", withTICS.Expiration.Observed))

	text := "Table 2 — time-consistency violations in AR under RF-harvested power.\n" +
		fmt.Sprintf("Manual-time run: %d power failures; TICS run: %d power failures.\n",
			manual.Failures, withTICS.Failures) +
		"Paper shape: the manual version violates all three classes; TICS eliminates every one.\n\n" +
		tbl.String()
	return Report{
		ID:    "table2",
		Title: "Time-consistency violations in AR",
		Text:  text,
		Data:  map[string]any{"manual": manual, "tics": withTICS},
	}, nil
}
