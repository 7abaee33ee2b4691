package replay_test

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
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
	for _, bad := range []string{"", "solar", "duty:x", "fail:x", "harvest:1", "harvest:a,b"} {
		if _, err := replay.ParsePower(bad, 1); err == nil {
			t.Fatalf("ParsePower(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "sundial", "rtc:x", "remanence:1", "remanence:a,b"} {
		if _, err := replay.ParseClock(bad, 1); err == nil {
			t.Fatalf("ParseClock(%q) accepted", bad)
		}
	}
	if src, err := replay.ParsePower("harvest:25000,300", 42); err != nil || src.Name() == "" {
		t.Fatalf("harvest parse: %v", err)
	}
}
