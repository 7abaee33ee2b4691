package bench

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// legacyJSON is the flat shape the pre-schema BenchmarkFleetThroughput
// wrote, with no schema_version.
const legacyJSON = `{
  "app": "ghm",
  "cpus": 2,
  "n": 64,
  "workers_4": {"device_cycles_per_sec": 1150271322.7, "devices_per_sec": 4938.7}
}`

// TestParseRequiresSchemaVersion: a ledger without schema_version is
// refused, and the error names the missing field.
func TestParseRequiresSchemaVersion(t *testing.T) {
	_, err := Parse([]byte(legacyJSON))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsFutureSchema(t *testing.T) {
	_, err := Parse([]byte(`{"schema_version": 99}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version 99") {
		t.Fatalf("err = %v", err)
	}
}

func sampleEntry(n int) *FleetEntry {
	return &FleetEntry{
		Devices: n, App: "ghm", WallMs: 100, Source: "sweep",
		Best:    Point{DevicesPerSec: 1000, DeviceCyclesPerSec: 2e8},
		Workers: map[string]Point{"1": {DevicesPerSec: 1000, DeviceCyclesPerSec: 2e8}},
		Telemetry: &TelemetryPair{
			Off:         Point{DevicesPerSec: 1000, DeviceCyclesPerSec: 2e8},
			On:          Point{DevicesPerSec: 900, DeviceCyclesPerSec: 1.8e8},
			OverheadPct: 10,
		},
		PeakRSSBytes: 50 << 20, RSSResettable: true, BytesPerDevice: 4096,
		PhaseSeconds: map[string]float64{
			fleet.PhaseBuild: 0.01, fleet.PhaseDevices: 0.5, fleet.PhaseChannel: 0.02,
			fleet.PhaseGateway: 0.02, fleet.PhaseTelemetry: 0.001,
		},
		SpeedupBestOverW1: 1,
	}
}

// TestMergeByKey: a sweep write and an n=64 benchmark write land in the
// same file without clobbering each other.
func TestMergeByKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	// Seed the file with an n=64 benchmark baseline.
	seed := NewFile()
	bench := sampleEntry(64)
	bench.Source, bench.Best.DevicesPerSec = "benchmark", 4938.7
	seed.SetFleet(FleetKey(64), bench)
	if err := Save(path, seed); err != nil {
		t.Fatal(err)
	}
	// A sweep merges its sizes in...
	err := Update(path, func(f *File) error {
		f.SetFleet(FleetKey(1000), sampleEntry(1000))
		f.SetFleet(FleetKey(10000), sampleEntry(10000))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...and an opcode run merges its table in, separately.
	err = Update(path, func(f *File) error {
		f.SetOpcode("Add", &OpcodeEntry{NsPerInstr: 12.5, Instrs: 100000})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n=64", "n=1000", "n=10000"}
	got := f.FleetKeys()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("keys %v, want %v", got, want)
	}
	if f.Fleet["n=64"].Best.DevicesPerSec != 4938.7 {
		t.Fatalf("n=64 entry clobbered: %+v", f.Fleet["n=64"])
	}
	if f.Opcodes["Add"].NsPerInstr != 12.5 {
		t.Fatalf("opcodes %+v", f.Opcodes)
	}
	if f.Host.CPUs != CurrentHost().CPUs {
		t.Fatalf("host not refreshed: %+v", f.Host)
	}
}

func twoLedgers() (*File, *File) {
	old, new := NewFile(), NewFile()
	for _, n := range []int{1000, 10000} {
		old.SetFleet(FleetKey(n), sampleEntry(n))
		new.SetFleet(FleetKey(n), sampleEntry(n))
	}
	old.SetOpcode("Add", &OpcodeEntry{NsPerInstr: 10, Instrs: 1e5})
	new.SetOpcode("Add", &OpcodeEntry{NsPerInstr: 10, Instrs: 1e5})
	return old, new
}

func TestCompareSelfIsClean(t *testing.T) {
	old, new := twoLedgers()
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("self-compare flagged %v", regs)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old, new := twoLedgers()
	// 40% throughput drop on n=1000, 50% RSS rise on n=10000, 2× opcode.
	new.Fleet["n=1000"].Best.DevicesPerSec = 600
	new.Fleet["n=10000"].PeakRSSBytes = 75 << 20
	new.Opcodes["Add"].NsPerInstr = 20

	regs := Compare(old, new, 0, nil)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions: %v", len(regs), regs)
	}
	kinds := map[string]string{}
	for _, r := range regs {
		kinds[r.Key] = r.Metric
		if r.DeltaPct <= 0 {
			t.Fatalf("delta not positive-is-worse: %v", r)
		}
	}
	if kinds["n=1000"] != "devices_per_sec" || kinds["n=10000"] != "peak_rss_bytes" || kinds["opcode/Add"] != "ns_per_instr" {
		t.Fatalf("kinds %v", kinds)
	}

	// A loose tolerance forgives all three.
	if regs := Compare(old, new, 1.5, nil); len(regs) != 0 {
		t.Fatalf("tolerance 150%% still flagged %v", regs)
	}
}

// TestCompareGatesBytesPerDevice: per-device footprint regressions are
// gated like throughput; missing measurements and improvements are not.
func TestCompareGatesBytesPerDevice(t *testing.T) {
	old, new := twoLedgers()
	new.Fleet["n=1000"].BytesPerDevice = sampleEntry(1000).BytesPerDevice * 2
	regs := Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "bytes_per_device" || regs[0].Key != "n=1000" {
		t.Fatalf("regs %v, want one bytes_per_device regression", regs)
	}
	if regs[0].DeltaPct <= 0 {
		t.Fatalf("delta not positive-is-worse: %v", regs[0])
	}

	new.Fleet["n=1000"].BytesPerDevice = 0 // unmeasured on one side: skipped
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("unmeasured bytes/device flagged %v", regs)
	}
	new.Fleet["n=1000"].BytesPerDevice = 100 // improvement: never a regression
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("improvement flagged %v", regs)
	}
}

// TestCompareGatesDigestRead: a slower digest read or ingest decode on a
// shared gate key is a regression; a faster one, or one measured on one
// side only, is not.
func TestCompareGatesDigestRead(t *testing.T) {
	old, new := twoLedgers()
	key := GateKey(DigestBatchFrames)
	old.SetGate(key, &GateEntry{BatchFrames: DigestBatchFrames, Batches: 200, FramesPerSec: 1e6, WALBytesFrame: 53, RecoveryMs: 33, DigestMs: 40, DecodeUs: 300})
	e := *old.Gate[key]
	e.DigestMs = 80
	new.SetGate(key, &e)
	regs := Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "digest_ms" || regs[0].Key != "gate/"+key || regs[0].DeltaPct != 100 {
		t.Fatalf("regs %v, want one digest_ms regression of +100%%", regs)
	}
	e.DigestMs, e.DecodeUs = 40, 450
	regs = Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "decode_us" || regs[0].Key != "gate/"+key || regs[0].DeltaPct != 50 {
		t.Fatalf("regs %v, want one decode_us regression of +50%%", regs)
	}
	e.DigestMs, e.DecodeUs = 10, 100
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("faster digest and decode flagged %v", regs)
	}
	e.DecodeUs = 0
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("decode measured on the baseline only flagged %v", regs)
	}
	delete(new.Gate, key)
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("baseline-only gate key flagged %v", regs)
	}
}

// TestCompareGatesUnitCosts: a dearer unit on a shared key is a
// regression; a cheaper one, or a key on one side only, is not.
func TestCompareGatesUnitCosts(t *testing.T) {
	old, new := twoLedgers()
	old.SetUnit("copy_charged", &UnitEntry{Unit: "word", Shape: "73 words, 2 passes", NsPerUnit: 2, Units: 7300})
	e := *old.Units["copy_charged"]
	e.NsPerUnit = 3
	new.SetUnit("copy_charged", &e)
	regs := Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "ns_per_unit" || regs[0].Key != "unit/copy_charged" || regs[0].DeltaPct != 50 {
		t.Fatalf("regs %v, want one ns_per_unit regression of +50%%", regs)
	}
	e.NsPerUnit = 1
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("cheaper unit flagged %v", regs)
	}
	delete(new.Units, "copy_charged")
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("baseline-only unit key flagged %v", regs)
	}
}

// TestCompareGatesMC: a model-checker sweep whose schedules/sec or
// states/sec drops past tolerance on a shared key is a regression; a
// faster one, or a key on one side only, is not.
func TestCompareGatesMC(t *testing.T) {
	old, new := twoLedgers()
	old.SetMC(MCKey(1), &MCEntry{Program: "bc", Depth: 1, Schedules: 400, CyclesExplored: 8e8, SchedulesPerSec: 800, StatesPerSec: 1.6e9})
	e := *old.MC[MCKey(1)]
	e.StatesPerSec = 0.8e9
	new.SetMC(MCKey(1), &e)
	regs := Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "states_per_sec" || regs[0].Key != "mc/depth=1" || regs[0].DeltaPct != 50 {
		t.Fatalf("regs %v, want one states_per_sec regression of +50%%", regs)
	}
	e.StatesPerSec, e.SchedulesPerSec = 1.6e9, 400
	regs = Compare(old, new, 0, nil)
	if len(regs) != 1 || regs[0].Metric != "schedules_per_sec" || regs[0].Key != "mc/depth=1" || regs[0].DeltaPct != 50 {
		t.Fatalf("regs %v, want one schedules_per_sec regression of +50%%", regs)
	}
	e.StatesPerSec, e.SchedulesPerSec = 3e9, 1000
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("faster sweep flagged %v", regs)
	}
	delete(new.MC, MCKey(1))
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("baseline-only mc key flagged %v", regs)
	}
}

func TestCompareSkipsMismatchedHosts(t *testing.T) {
	old, new := twoLedgers()
	new.Fleet["n=1000"].Best.DevicesPerSec = 1 // would be a huge regression
	new.Host.CPUs = old.Host.CPUs + 7
	var warn strings.Builder
	if regs := Compare(old, new, 0, &warn); len(regs) != 0 {
		t.Fatalf("cross-host compare flagged %v", regs)
	}
	if !strings.Contains(warn.String(), "hosts differ") {
		t.Fatalf("no warning: %q", warn.String())
	}
}

func TestCompareSkipsBaselineOnlyKeys(t *testing.T) {
	old, new := twoLedgers()
	delete(new.Fleet, "n=10000")
	var warn strings.Builder
	if regs := Compare(old, new, 0, &warn); len(regs) != 0 {
		t.Fatalf("missing key flagged %v", regs)
	}
	if !strings.Contains(warn.String(), "n=10000 only in baseline") {
		t.Fatalf("warning %q", warn.String())
	}
}

func TestCompareRSSModeMismatchNotGated(t *testing.T) {
	old, new := twoLedgers()
	new.Fleet["n=1000"].RSSResettable = false
	new.Fleet["n=1000"].PeakRSSBytes = 500 << 20 // monotone number, incomparable
	if regs := Compare(old, new, 0, nil); len(regs) != 0 {
		t.Fatalf("incomparable RSS flagged %v", regs)
	}
}

func TestValidate(t *testing.T) {
	f := NewFile()
	f.SetFleet(FleetKey(1000), sampleEntry(1000))
	f.SetOpcode("Add", &OpcodeEntry{NsPerInstr: 10, Instrs: 1e5})
	f.SetMC(MCKey(1), &MCEntry{
		Program: "swap", Depth: 1, Schedules: 28, CyclesExplored: 127740,
		SchedulesPerSec: 3e4, StatesPerSec: 1e8,
	})
	f.SetGate(GateKey(64), &GateEntry{
		BatchFrames: 64, Batches: 200, FramesPerSec: 3e5, WALBytesFrame: 53.4, RecoveryMs: 3.7,
	})
	f.SetGate(GateKey(DigestBatchFrames), &GateEntry{
		BatchFrames: DigestBatchFrames, Batches: 200, FramesPerSec: 1e6, WALBytesFrame: 53.1, RecoveryMs: 33, DigestMs: 40, DecodeUs: 300,
	})
	f.SetUnit("copy_charged", &UnitEntry{Unit: "word", Shape: "73 words, 2 passes", NsPerUnit: 1.5, Units: 7300})
	if errs := Validate(f); len(errs) != 0 {
		t.Fatalf("valid file rejected: %v", errs)
	}

	// Break it several ways at once; every symptom must be reported.
	bad := NewFile()
	e := sampleEntry(500)
	e.Source = "vibes"
	e.PhaseSeconds["warp"] = 0.1
	bad.SetFleet("n=9999", e) // key/devices mismatch
	bad.SetOpcode("Sub", &OpcodeEntry{NsPerInstr: -1, Instrs: 0})
	bad.SetMC("depth=2", &MCEntry{Depth: 1, Schedules: 0, CyclesExplored: 0, SchedulesPerSec: 0, StatesPerSec: 0})
	bad.SetGate("batch=9", &GateEntry{BatchFrames: 1, Batches: 0, FramesPerSec: 0, WALBytesFrame: -1, RecoveryMs: 0})
	bad.SetGate(GateKey(DigestBatchFrames), &GateEntry{BatchFrames: DigestBatchFrames, Batches: 1, FramesPerSec: 1, WALBytesFrame: 1, RecoveryMs: 1})
	bad.SetUnit("copy_charged", &UnitEntry{NsPerUnit: math.Inf(1), Units: 0})
	bad.SetUnit("other", &UnitEntry{Unit: "word", Shape: "s", NsPerUnit: 0, Units: 1})
	errs := Validate(bad)
	for _, want := range []string{"does not match devices", "source", "unknown phase", "ns_per_instr", "instrs",
		"program empty", "does not match depth", "schedules =", "cycles_explored", "schedules_per_sec", "states_per_sec",
		"does not match batch_frames", "batches =", "frames_per_sec", "wal_bytes_frame", "recovery_ms", "digest_ms", "decode_us",
		"unit or shape empty", "unit/copy_charged: ns_per_unit is not finite", "units = 0", "unit/other: ns_per_unit = 0"} {
		found := false
		for _, err := range errs {
			if strings.Contains(err.Error(), want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no error mentioning %q in %v", want, errs)
		}
	}
}

// TestRunSweepSmall exercises the real sweep machinery on a fleet small
// enough for CI and checks the entry it produces honors the schema.
func TestRunSweepSmall(t *testing.T) {
	entries, err := RunSweep(SweepConfig{Ns: []int{8}, Workers: []int{1, 2}, WallMs: 20}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	e := entries["n=8"]
	if e == nil {
		t.Fatalf("entries %v", entries)
	}
	if e.Best.DevicesPerSec <= 0 || e.Best.DeviceCyclesPerSec <= 0 {
		t.Fatalf("best %+v", e.Best)
	}
	if len(e.Workers) != 2 {
		t.Fatalf("workers %+v", e.Workers)
	}
	if len(e.PhaseSeconds) != len(fleet.PhaseNames) {
		t.Fatalf("phases %+v", e.PhaseSeconds)
	}
	if e.Telemetry == nil || e.Telemetry.On.DevicesPerSec <= 0 {
		t.Fatalf("telemetry %+v", e.Telemetry)
	}
	if e.BytesPerDevice <= 0 {
		t.Fatalf("bytes/device %g", e.BytesPerDevice)
	}

	f := NewFile()
	for k, v := range entries {
		f.SetFleet(k, v)
	}
	if errs := Validate(f); len(errs) != 0 {
		t.Fatalf("sweep output fails validation: %v", errs)
	}
}
