package replay_test

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/timekeeper"
)

func TestRecordingSourceLogsEveryWindow(t *testing.T) {
	rs := &replay.RecordingSource{Inner: &power.FailEvery{Cycles: 100, OffMs: 3}}
	for i := 0; i < 5; i++ {
		rs.NextWindow()
	}
	if len(rs.Windows) != 5 {
		t.Fatalf("logged %d windows, want 5", len(rs.Windows))
	}
	for _, w := range rs.Windows {
		if w.Cycles != 100 || w.OffMs != 3 {
			t.Fatalf("window %+v, want {100 3}", w)
		}
	}
}

// TestManifestWindowsReplayVerbatimThenDegrade pins the manifest's window
// JSON and its playback: a replay feeds the recorded windows back as a
// power.Schedule, verbatim, then continuous power.
func TestManifestWindowsReplayVerbatimThenDegrade(t *testing.T) {
	const wire = `[{"cycles":7,"off_ms":1.5},{"cycles":9,"off_ms":0}]`
	var ws []replay.WindowRec
	if err := json.Unmarshal([]byte(wire), &ws); err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(ws); err != nil || string(b) != wire {
		t.Fatalf("manifest windows re-encode as %s (%v), want %s", b, err, wire)
	}
	ps := &power.Schedule{Windows: ws}
	for i, want := range ws {
		c, off := ps.NextWindow()
		if c != want.Cycles || off != want.OffMs {
			t.Fatalf("window %d: got (%d,%v) want %+v", i, c, off, want)
		}
	}
	if c, _ := ps.NextWindow(); c != math.MaxInt64 {
		t.Fatalf("post-exhaustion window = %d, want effectively-continuous", c)
	}
}

func TestFirstDivergence(t *testing.T) {
	a := []obs.Event{{Kind: obs.EvSend, Arg0: 1}, {Kind: obs.EvSend, Arg0: 2}}
	same := []obs.Event{{Kind: obs.EvSend, Arg0: 1}, {Kind: obs.EvSend, Arg0: 2}}
	if i, d := replay.FirstDivergence(a, same); d {
		t.Fatalf("identical streams diverge at %d", i)
	}
	mut := []obs.Event{{Kind: obs.EvSend, Arg0: 1}, {Kind: obs.EvSend, Arg0: 3}}
	if i, d := replay.FirstDivergence(a, mut); !d || i != 1 {
		t.Fatalf("want divergence at 1, got (%d,%v)", i, d)
	}
	prefix := a[:1]
	if i, d := replay.FirstDivergence(a, prefix); !d || i != 1 {
		t.Fatalf("strict prefix: want divergence at 1, got (%d,%v)", i, d)
	}
}

func TestManifestRoundTripAndReplayFromFile(t *testing.T) {
	spec := replay.Spec{
		Source:  "int g; int main(){ g = 2; out(1, g); return 0; }",
		Runtime: "tics",
		Power:   "fail:5000",
		Clock:   "perfect",
		Seed:    3,
	}
	man, run, err := replay.Record(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Events) == 0 || man.EventCount != int64(len(run.Events)) {
		t.Fatalf("manifest counts %d events, run has %d", man.EventCount, len(run.Events))
	}
	if len(man.Windows) == 0 {
		t.Fatal("no power windows recorded")
	}

	path := filepath.Join(t.TempDir(), "run.manifest.json")
	if err := replay.WriteManifest(path, man); err != nil {
		t.Fatal(err)
	}
	back, err := replay.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man, back) {
		t.Fatalf("manifest round trip mutated it:\n%+v\n%+v", man, back)
	}

	rerun, err := replay.Replay(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.VerifyReplay(back, rerun); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRejectsUnknownVersion(t *testing.T) {
	if _, err := replay.Replay(&replay.Manifest{Version: 99}, nil); err == nil {
		t.Fatal("version 99 accepted")
	}
}

func TestParsePowerAndClockErrors(t *testing.T) {
	for _, bad := range []string{"", "solar", "duty:x", "fail:x", "fail:3000,", "fail:3000,x", "harvest:1", "harvest:a,b"} {
		if _, err := replay.ParsePower(bad, 1); err == nil {
			t.Fatalf("ParsePower(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "sundial", "rtc:x", "remanence:1", "remanence:a,b", "remanence:0.1,5000,x", "remanence:0.1,5000,3,4"} {
		if _, err := replay.ParseClock(bad, 1); err == nil {
			t.Fatalf("ParseClock(%q) accepted", bad)
		}
	}
	if src, err := replay.ParsePower("harvest:25000,300", 42); err != nil || src.Name() == "" {
		t.Fatalf("harvest parse: %v", err)
	}
}

// TestPowerAndClockOptionalFields: fail's off-time defaults to 20 ms,
// and a remanence clock's own seed overrides the run seed.
func TestPowerAndClockOptionalFields(t *testing.T) {
	for arg, want := range map[string]power.FailEvery{
		"fail:3000":    {Cycles: 3000, OffMs: 20},
		"fail:3000,10": {Cycles: 3000, OffMs: 10},
	} {
		src, err := replay.ParsePower(arg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := src.(*power.FailEvery); !ok || *got != want {
			t.Fatalf("%s: %#v, want %+v", arg, src, want)
		}
	}
	for arg, seed := range map[string]uint64{"remanence:0.1,5000": 8, "remanence:0.1,5000,3": 3} {
		c, err := replay.ParseClock(arg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := timekeeper.NewRemanence(0.1, 5000, seed); !reflect.DeepEqual(c, want) {
			t.Fatalf("%s: %#v, want %#v", arg, c, want)
		}
	}
}

// TestBuildKnobsRecordAndReplay: every build knob a Spec names goes into
// the manifest, changes the run, and replays byte-identically from the
// manifest alone.
func TestBuildKnobsRecordAndReplay(t *testing.T) {
	for _, c := range []struct {
		key  string // the knob's manifest field
		spec replay.Spec
	}{
		{`"undo_block_bytes": 16`, replay.Spec{Runtime: "tics", UndoBlockBytes: 16}},
		{`"undo_block_bytes": 64`, replay.Spec{Runtime: "tics", UndoBlockBytes: 64}},
		{`"differential_checkpoints": true`, replay.Spec{Runtime: "tics", DifferentialCheckpoints: true}},
		{`"undo_cap_bytes": 96`, replay.Spec{Runtime: "tics", UndoCapBytes: 96}},
		{`"voltage_threshold_cycles": 3000`, replay.Spec{Runtime: "mementos", VoltageThresholdCycles: 3000}},
		{`"o0": true`, replay.Spec{Runtime: "tics", O0: true}},
	} {
		spec := c.spec
		spec.App, spec.Power, spec.Seed, spec.MaxCycles = "cf", "fail:3000", 1, 2_000_000
		man, run, err := replay.Record(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.manifest.json")
		if err := replay.WriteManifest(path, man); err != nil {
			t.Fatal(err)
		}
		back, err := replay.ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(back.Spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Spec, man.Spec) || !strings.Contains(string(b), c.key) {
			t.Fatalf("manifest spec does not name %s:\n%s", c.key, b)
		}
		rerun, err := replay.Replay(back, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.VerifyReplay(back, rerun); err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		_, without, err := replay.Record(replay.Spec{App: spec.App, Runtime: spec.Runtime,
			Power: spec.Power, Seed: spec.Seed, MaxCycles: spec.MaxCycles}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if without.SHA256 == run.SHA256 {
			t.Fatalf("%s: the knob does not change the run", c.key)
		}
	}
}
