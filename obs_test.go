// Acceptance tests for the flight recorder: the event stream, profile and
// metrics must agree exactly with the machine's own accounting, and
// attaching a recorder must not perturb the simulation.
package tics_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sensors"
)

// runAR executes the AR benchmark on TICS under 48% duty-cycled power,
// matching the worked example in the README.
func runAR(t *testing.T, rec *obs.Recorder) (int64, int64) {
	t.Helper()
	img, err := tics.Build(apps.AR().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:    &power.DutyCycle{Rate: 0.48, OnMs: 40},
		Sensors:  sensors.NewBank(1),
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	return res.Cycles, res.TotalCheckpoints
}

func TestFlightRecorderMatchesMachineAccounting(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Profile: true})
	cycles, checkpoints := runAR(t, rec)
	rec.Finish()

	// Event stream vs machine counter: every committed checkpoint left
	// exactly one commit event.
	if got := rec.Metrics().Counter("checkpoint_commits"); got != checkpoints {
		t.Fatalf("checkpoint_commits counter = %d, machine counted %d", got, checkpoints)
	}
	if got := rec.CountKind(obs.EvCheckpointCommit); got != checkpoints {
		t.Fatalf("ring has %d commit events, machine counted %d (dropped=%d)",
			got, checkpoints, rec.Dropped())
	}

	// The Chrome export is valid JSON and its checkpoint events agree too.
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	var commits int64
	for _, te := range doc.TraceEvents {
		if te.Name == "checkpoint" {
			commits++
		}
	}
	if commits != checkpoints {
		t.Fatalf("Chrome trace has %d checkpoint events, machine counted %d", commits, checkpoints)
	}

	// The category partition accounts for every consumed cycle exactly.
	p := rec.Profile()
	if total := p.TotalCycles(); total != cycles {
		t.Fatalf("profile categories sum to %d cycles, machine consumed %d (%v)",
			total, cycles, p.ByCategory)
	}
	// An intermittent run has both productive and dead work.
	if p.ByCategory[obs.CatApp.String()] == 0 || p.ByCategory[obs.CatDead.String()] == 0 {
		t.Fatalf("implausible partition: %v", p.ByCategory)
	}

	// Folded stacks attribute the same grand total as the categories.
	var folded int64
	for _, v := range p.Folded {
		folded += v
	}
	if folded != cycles {
		t.Fatalf("folded stacks sum to %d, want %d", folded, cycles)
	}
}

func TestRecorderDoesNotPerturbTheRun(t *testing.T) {
	bare, cpBare := runAR(t, nil)
	rec := obs.NewRecorder(obs.Options{Profile: true})
	traced, cpTraced := runAR(t, rec)
	if bare != traced || cpBare != cpTraced {
		t.Fatalf("recorder changed the simulation: %d/%d cycles, %d/%d checkpoints",
			bare, traced, cpBare, cpTraced)
	}
}

// TestStatsAreDefensiveCopies: every Result owns its RuntimeStats map,
// so mutating one run's map cannot reach the next run's on the same
// pooled machine, and the map lists only counters that moved.
func TestStatsAreDefensiveCopies(t *testing.T) {
	const src = `
int g[8];
int bump(int x) { return x + 1; }
int main() {
	int i;
	for (i = 0; i < 40; i++) { g[i & 7] = bump(g[i & 7]); }
	out(0, g[0]);
	return 0;
}
`
	// One reboot mid-run, then continuous power.
	opts := func() tics.RunOptions {
		return tics.RunOptions{Power: &power.Schedule{Windows: []power.SchedWindow{{Cycles: 1500, OffMs: 5}}}}
	}
	for _, kind := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS, tics.RTMementos, tics.RTChinchilla} {
		img, err := tics.Build(src, tics.BuildOptions{Runtime: kind})
		if err != nil {
			t.Fatal(err)
		}
		m, err := tics.NewMachine(img, opts())
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want := maps.Clone(first.RuntimeStats)
		if len(want) == 0 {
			t.Fatalf("%s: no counter moved across the reboot", kind)
		}
		for k := range first.RuntimeStats {
			first.RuntimeStats[k] = -777
		}
		first.RuntimeStats["poison"] = 1
		if err := tics.ResetMachine(m, img, opts()); err != nil {
			t.Fatal(err)
		}
		second, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !maps.Equal(second.RuntimeStats, want) {
			t.Fatalf("%s: pooled rerun stats %v, want %v", kind, second.RuntimeStats, want)
		}
		for k, v := range second.RuntimeStats {
			if v == 0 {
				t.Fatalf("%s: counter %q listed at zero", kind, k)
			}
		}
	}
}
