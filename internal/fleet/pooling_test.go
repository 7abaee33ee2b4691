package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/replay"
	"repro/internal/sensors"
)

// assertReportsMatch compares every externally visible fleet result two
// runs produced — the wave-size equivalence gate.
func assertReportsMatch(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Digest != b.Digest {
		t.Fatalf("%s: digests diverge:\n %s\n %s", label, a.Digest, b.Digest)
	}
	if a.Gateway != b.Gateway {
		t.Fatalf("%s: gateway stats diverge: %+v vs %+v", label, a.Gateway, b.Gateway)
	}
	if a.Link != b.Link {
		t.Fatalf("%s: link stats diverge: %+v vs %+v", label, a.Link, b.Link)
	}
	if a.Sends != b.Sends || a.UniqueSends != b.UniqueSends ||
		a.Lost != b.Lost || a.TotalCycles != b.TotalCycles {
		t.Fatalf("%s: aggregates diverge", label)
	}
	if a.Completed != b.Completed || a.Starved != b.Starved ||
		a.TimedOut != b.TimedOut || a.Faulted != b.Faulted {
		t.Fatalf("%s: outcome counts diverge", label)
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.Seed != y.Seed || x.Res.Cycles != y.Res.Cycles ||
			x.Sends != y.Sends || x.UniqueSends != y.UniqueSends ||
			x.Res.TotalCheckpoints != y.Res.TotalCheckpoints ||
			x.Res.Restores != y.Res.Restores ||
			x.Res.MemStats != y.Res.MemStats {
			t.Fatalf("%s: device %d outcomes diverge:\n%+v\n%+v", label, i, x, y)
		}
	}
	if a.Metrics != nil || b.Metrics != nil {
		var sa, sb strings.Builder
		a.Metrics.Dump(&sa)
		b.Metrics.Dump(&sb)
		if sa.String() != sb.String() {
			t.Fatalf("%s: merged metrics diverge:\n%s\nvs\n%s", label, sa.String(), sb.String())
		}
	}
}

// TestPooledReuseMatchesFresh is the pooled-machine acceptance gate: a
// fleet whose machines are reset and reused across waves must be
// indistinguishable — per-device results, link and gateway stats,
// digest, merged metrics — from a fresh machine per device
// (perDeviceReference). A tiny Wave forces every pooled machine through
// many reuse cycles, and the -race runs in CI make it double as the
// pool's sharing regression.
func TestPooledReuseMatchesFresh(t *testing.T) {
	ghm := fleetCfg(3)
	ghm.Devices = 13
	ghm.WallMs = 150
	ghm.Wave = 4
	// Raw-radio replays stress the send-seq reset path specifically. The
	// 300-cycle first window cuts every device before its first commit
	// point, so a device that inherits its slot's last committed send
	// seq numbers every send after it wrongly.
	raw := sendyCfg(false)
	raw.Power = "sched:300@20,7300@20,7300@20,7300@20,7300@20,7300@20"
	raw.Wave = 2
	for name, cfg := range map[string]Config{"ghm": ghm, "raw radio": raw} {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, _ := perDeviceReference(t, cfg, rep)
		if rep.Metrics != nil {
			want, _ := registryText(t, ref)
			if got, _ := registryText(t, rep.Metrics); got != want {
				t.Fatalf("%s: merged metrics differ from fresh runs:\n%s\nvs\n%s", name, got, want)
			}
		}
	}
}

// TestWaveSizeIndependence: the streaming handoff must not leak into any
// result — one wave per device, tiny waves, and one big wave all match.
func TestWaveSizeIndependence(t *testing.T) {
	run := func(wave int) *Report {
		cfg := fleetCfg(2)
		cfg.Devices = 9
		cfg.WallMs = 150
		cfg.Wave = wave
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one := run(1)
	three := run(3)
	big := run(4096)
	assertReportsMatch(t, "wave 1 vs 3", one, three)
	assertReportsMatch(t, "wave 3 vs big", three, big)
}

// TestUniqueSendsMatchesSet pins the frontier-counting optimization
// against the map it replaced, on a raw radio whose rollbacks actually
// replay sequence numbers (seqs like 0,1,2,1,2,3 — nondecreasing only
// between rollbacks).
func TestUniqueSendsMatchesSet(t *testing.T) {
	spec := replay.Spec{
		Source:  sendySrc,
		Runtime: "tics",
		Power:   "fail:7300",
		Seed:    7,
		TimerMs: 5,
	}
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := replay.ParsePower(spec.Power, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:          src,
		Sensors:        sensors.NewBank(spec.Seed),
		AutoCpPeriodMs: spec.TimerMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	log := res.SendLog
	if len(log) == 0 {
		t.Fatal("scenario produced no sends")
	}
	set := map[int64]struct{}{}
	replayed := false
	for i, rec := range log {
		if _, dup := set[rec.Seq]; dup {
			replayed = true
		}
		set[rec.Seq] = struct{}{}
		if i > 0 && rec.Seq < log[i-1].Seq {
			replayed = true
		}
	}
	if !replayed {
		t.Fatal("scenario did not replay any seq; the regression test is vacuous")
	}
	if got, want := uniqueSends(log), int64(len(set)); got != want {
		t.Fatalf("uniqueSends = %d, map count = %d", got, want)
	}
}

// TestReportNilGateway: a Report decoded from JSON (or zero-constructed
// in tests) has no live gateway; its log accessors must return nil, not
// panic — the same contract DeviceRegistry already had.
func TestReportNilGateway(t *testing.T) {
	var rep Report
	if rep.GatewayLog() != nil {
		t.Fatal("GatewayLog on a zero Report is non-nil")
	}
	if rep.DeviceLog(0) != nil {
		t.Fatal("DeviceLog on a zero Report is non-nil")
	}
	if rep.DeviceRegistry(0) != nil {
		t.Fatal("DeviceRegistry on a zero Report is non-nil")
	}

	live, err := Run(Config{Devices: 1, Workers: 1, App: "ghm", WallMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.GatewayLog() != nil || decoded.DeviceLog(0) != nil {
		t.Fatal("decoded Report resurrected a gateway")
	}
}
