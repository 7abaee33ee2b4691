// Acceptance tests for the trace auditor: TICS must audit clean on every
// benchmark under every power model, and genuinely broken recovery
// (Mementos without versioned globals, an undo-log entry dropped by fault
// injection) must be flagged with the offending address.
package tics_test

import (
	"fmt"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sensors"
	"repro/internal/trace"
)

func TestAuditCleanOnTICSAppsAcrossPowerModels(t *testing.T) {
	powers := []struct {
		name string
		mk   func() power.Source
	}{
		{"continuous", func() power.Source { return power.Continuous{} }},
		{"fail-every", func() power.Source { return &power.FailEvery{Cycles: 9973, OffMs: 7} }},
		{"duty-cycle", func() power.Source { return &power.DutyCycle{Rate: 0.48, OnMs: 40} }},
		{"harvester", func() power.Source { return power.NewHarvester(40_000, 800, 0.5, 11) }},
	}
	for _, app := range []apps.App{apps.BC(), apps.CF(), apps.AR()} {
		for _, pw := range powers {
			t.Run(fmt.Sprintf("%s/%s", app.Name, pw.name), func(t *testing.T) {
				img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: tics.RTTICS})
				if err != nil {
					t.Fatal(err)
				}
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          pw.mk(),
					Sensors:        sensors.NewBank(1),
					AutoCpPeriodMs: 2,
					Recorder:       obs.NewRecorder(obs.Options{}),
				})
				if err != nil {
					t.Fatal(err)
				}
				a, err := audit.Attach(m, audit.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					t.Fatalf("run: %v %+v", err, res)
				}
				if err := a.Err(); err != nil {
					t.Fatalf("TICS audit on %s/%s:\n%v", app.Name, pw.name, err)
				}
			})
		}
	}
}

// Mementos with unversioned globals (the paper's Table 1 configuration of
// the checkpoint-only baselines) genuinely violates rollback exactness:
// globals written after the last checkpoint survive the reboot. The
// auditor must catch it and name a corrupted address with the event that
// wrote it.
func TestAuditFlagsMementosUnversionedGlobals(t *testing.T) {
	noVersioning := false
	img, err := tics.Build(apps.BC().Source, tics.BuildOptions{
		Runtime:        tics.RTMementos,
		VersionGlobals: &noVersioning,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:          &power.FailEvery{Cycles: 9973, OffMs: 7},
		Sensors:        sensors.NewBank(1),
		AutoCpPeriodMs: 2,
		Recorder:       obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := audit.Attach(m, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Total() == 0 {
		t.Fatal("auditor passed Mementos without versioned globals")
	}
	var found bool
	base, end := a.Region()
	for _, v := range a.Violations() {
		if v.Check == audit.CheckRollback {
			found = true
			if v.Addr < base || v.Addr >= end {
				t.Fatalf("violation address %#x outside data region [%#x,%#x)", v.Addr, base, end)
			}
			if v.WriterSeq < 0 {
				t.Fatalf("rollback violation lacks causing-write attribution: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("no rollback-exactness violation among %d: %v", a.Total(), a.Violations())
	}

	// Control: with versioned globals (the default) the same configuration
	// audits clean — the violations above are real, not auditor noise.
	img2, err := tics.Build(apps.BC().Source, tics.BuildOptions{Runtime: tics.RTMementos})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tics.NewMachine(img2, tics.RunOptions{
		Power:          &power.FailEvery{Cycles: 9973, OffMs: 7},
		Sensors:        sensors.NewBank(1),
		AutoCpPeriodMs: 2,
		Recorder:       obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := audit.Attach(m2, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m2.Run(); err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if err := a2.Err(); err != nil {
		t.Fatalf("versioned Mementos flagged (auditor false positive): %v", err)
	}
}

// Fault injection: drop a single undo-log append inside TICS and the
// auditor must report the uncovered store with its address and event
// index (ISSUE acceptance criterion).
func TestAuditDetectsInjectedUndoSkip(t *testing.T) {
	img, err := tics.Build(apps.BC().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:          &power.FailEvery{Cycles: 9973, OffMs: 7},
		Sensors:        sensors.NewBank(1),
		AutoCpPeriodMs: 2,
		Recorder:       obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := m.Runtime().(*core.TICS)
	if !ok {
		t.Fatalf("runtime is %T, want *core.TICS", m.Runtime())
	}
	rt.InjectUndoSkip(5)
	a, err := audit.Attach(m, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Total() == 0 {
		t.Fatal("auditor missed the dropped undo-log append")
	}
	v := a.Violations()[0]
	if v.Check != audit.CheckUndoLog {
		t.Fatalf("first violation is %s, want %s: %+v", v.Check, audit.CheckUndoLog, v)
	}
	base, end := a.Region()
	if v.Addr < base || v.Addr >= end {
		t.Fatalf("offending address %#x outside data region [%#x,%#x)", v.Addr, base, end)
	}
	if v.EventSeq < 0 {
		t.Fatalf("violation lacks an event index: %+v", v)
	}
}

// TestAuditSurvivesTraceDetector attaches the Table 2 detector after the
// auditor on the same machine: both observe stores, so the detector must
// chain its store observer rather than replace the auditor's, and the
// dropped undo-log append must still be reported.
func TestAuditSurvivesTraceDetector(t *testing.T) {
	img, err := tics.Build(apps.AR().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:          &power.FailEvery{Cycles: 9973, OffMs: 7},
		Sensors:        sensors.NewBank(1),
		AutoCpPeriodMs: 2,
		Recorder:       obs.NewRecorder(obs.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Runtime().(*core.TICS).InjectUndoSkip(5)
	a, err := audit.Attach(m, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := trace.Attach(m, img.Image, trace.Config{
		Pairs: []trace.Pair{{DataName: "accel"}}, ConsumeMark: 3, FreshnessMs: 200, AlignMs: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	det.Finish()
	if a.Total() == 0 || a.Violations()[0].Check != audit.CheckUndoLog {
		t.Fatalf("auditor beside the trace detector missed the dropped undo-log append: %v", a.Violations())
	}
	if det.Misalign.Potential == 0 {
		t.Fatal("trace detector observed no consumes")
	}
}

// The task runtimes (write-ahead redo/undo logs of their own) and
// Chinchilla also audit clean: their commit points genuinely restore
// exact state, and the auditor understands their event vocabulary.
func TestAuditCleanOnBaselineRuntimes(t *testing.T) {
	app := apps.BC()
	cases := []struct {
		name string
		opts tics.BuildOptions
		src  string
	}{
		{"chinchilla", tics.BuildOptions{Runtime: tics.RTChinchilla}, apps.BCNoRecursion().Source},
		{"mementos", tics.BuildOptions{Runtime: tics.RTMementos}, app.Source},
		// Alpaca tasks need a window long enough to reach a transition,
		// else the run Sisyphus-loops (that is a progress property, not a
		// state-consistency one — the auditor checks the latter).
		{"alpaca", tics.BuildOptions{Runtime: tics.RTAlpaca, Tasks: app.Tasks, Edges: app.Edges}, app.TaskSource},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, err := tics.Build(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			failEvery := int64(9973)
			if tc.name == "alpaca" {
				failEvery = 40_000
			}
			m, err := tics.NewMachine(img, tics.RunOptions{
				Power:          &power.FailEvery{Cycles: failEvery, OffMs: 7},
				Sensors:        sensors.NewBank(1),
				AutoCpPeriodMs: 2,
				Recorder:       obs.NewRecorder(obs.Options{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := audit.Attach(m, audit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil || !res.Completed {
				t.Fatalf("run: %v %+v", err, res)
			}
			if err := a.Err(); err != nil {
				t.Fatalf("%s audit: %v", tc.name, err)
			}
		})
	}
}
