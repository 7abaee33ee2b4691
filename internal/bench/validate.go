package bench

import (
	"fmt"
	"math"

	"repro/internal/fleet"
)

// Validate structurally checks a ledger the way claims_test.go checks
// CLAIMS.json: every violation is reported (not just the first), so a
// broken generator shows all its symptoms at once. A nil return means
// the file honors the schema contract CI and -compare rely on.
func Validate(f *File) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if f.SchemaVersion != SchemaVersion {
		bad("schema_version = %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	if f.Host.CPUs <= 0 {
		bad("host.cpus = %d, want > 0", f.Host.CPUs)
	}
	if f.Host.GoVersion == "" || f.Host.GOOS == "" || f.Host.GOARCH == "" {
		bad("host metadata incomplete: %+v", f.Host)
	}
	if len(f.Fleet) == 0 {
		bad("no fleet entries")
	}

	finite := func(key, metric string, v float64, positive bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad("%s: %s is not finite", key, metric)
		} else if positive && v <= 0 {
			bad("%s: %s = %g, want > 0", key, metric, v)
		} else if v < 0 {
			bad("%s: %s = %g, want >= 0", key, metric, v)
		}
	}

	phaseSet := map[string]bool{}
	for _, name := range fleet.PhaseNames {
		phaseSet[name] = true
	}

	for _, key := range f.FleetKeys() {
		e := f.Fleet[key]
		if e == nil {
			bad("%s: null entry", key)
			continue
		}
		if e.Devices <= 0 {
			bad("%s: devices = %d, want > 0", key, e.Devices)
		}
		if want := e.Key(); key != want {
			bad("%s: key does not match devices (want %s)", key, want)
		}
		if e.App == "" {
			bad("%s: app empty", key)
		}
		if e.Source != "sweep" && e.Source != "benchmark" {
			bad("%s: source %q, want sweep|benchmark", key, e.Source)
		}
		finite(key, "best.devices_per_sec", e.Best.DevicesPerSec, true)
		finite(key, "best.device_cycles_per_sec", e.Best.DeviceCyclesPerSec, true)
		for w, p := range e.Workers {
			finite(key+"/workers="+w, "devices_per_sec", p.DevicesPerSec, true)
			finite(key+"/workers="+w, "device_cycles_per_sec", p.DeviceCyclesPerSec, true)
		}
		if t := e.Telemetry; t != nil {
			finite(key, "telemetry.off.devices_per_sec", t.Off.DevicesPerSec, true)
			finite(key, "telemetry.on.devices_per_sec", t.On.DevicesPerSec, true)
			finite(key, "telemetry.overhead_pct", t.OverheadPct+100, false) // overhead may be slightly negative (noise)
		}
		if e.PeakRSSBytes < 0 {
			bad("%s: peak_rss_bytes = %d, want >= 0", key, e.PeakRSSBytes)
		}
		// Sweep entries must carry the per-device footprint: it is a gated
		// column (-compare) and the scaling sweep always measures it. The
		// n=64 benchmark entries predate the column, so only finiteness
		// is required of them.
		finite(key, "bytes_per_device", e.BytesPerDevice, e.Source == "sweep")
		for name, sec := range e.PhaseSeconds {
			if !phaseSet[name] {
				bad("%s: unknown phase %q", key, name)
			}
			finite(key+"/phase="+name, "seconds", sec, false)
		}
		if len(e.PhaseSeconds) > 0 && len(e.PhaseSeconds) != len(fleet.PhaseNames) {
			bad("%s: %d phases recorded, want %d (all of %v)", key, len(e.PhaseSeconds), len(fleet.PhaseNames), fleet.PhaseNames)
		}
	}

	for name, e := range f.Opcodes {
		if e == nil {
			bad("opcode %s: null entry", name)
			continue
		}
		finite("opcode/"+name, "ns_per_instr", e.NsPerInstr, true)
		if e.Instrs <= 0 {
			bad("opcode %s: instrs = %d, want > 0", name, e.Instrs)
		}
	}

	for key, e := range f.MC {
		if e == nil {
			bad("mc %s: null entry", key)
			continue
		}
		if e.Program == "" {
			bad("mc %s: program empty", key)
		}
		if e.Depth <= 0 {
			bad("mc %s: depth = %d, want > 0", key, e.Depth)
		}
		if want := MCKey(e.Depth); key != want {
			bad("mc %s: key does not match depth (want %s)", key, want)
		}
		if e.Schedules <= 0 {
			bad("mc %s: schedules = %d, want > 0", key, e.Schedules)
		}
		if e.CyclesExplored <= 0 {
			bad("mc %s: cycles_explored = %d, want > 0", key, e.CyclesExplored)
		}
		finite("mc/"+key, "schedules_per_sec", e.SchedulesPerSec, true)
		finite("mc/"+key, "states_per_sec", e.StatesPerSec, true)
	}

	for key, e := range f.Gate {
		if e == nil {
			bad("gate %s: null entry", key)
			continue
		}
		if e.BatchFrames <= 0 {
			bad("gate %s: batch_frames = %d, want > 0", key, e.BatchFrames)
		}
		if want := GateKey(e.BatchFrames); key != want {
			bad("gate %s: key does not match batch_frames (want %s)", key, want)
		}
		if e.Batches <= 0 {
			bad("gate %s: batches = %d, want > 0", key, e.Batches)
		}
		finite("gate/"+key, "frames_per_sec", e.FramesPerSec, true)
		finite("gate/"+key, "wal_bytes_frame", e.WALBytesFrame, true)
		finite("gate/"+key, "recovery_ms", e.RecoveryMs, true)
		if e.BatchFrames == DigestBatchFrames || e.DigestMs != 0 {
			finite("gate/"+key, "digest_ms", e.DigestMs, true)
		}
		if e.BatchFrames == DigestBatchFrames || e.DecodeUs != 0 {
			finite("gate/"+key, "decode_us", e.DecodeUs, true)
		}
	}

	for key, e := range f.Units {
		if e == nil {
			bad("unit %s: null entry", key)
			continue
		}
		if e.Unit == "" || e.Shape == "" {
			bad("unit %s: unit or shape empty", key)
		}
		finite("unit/"+key, "ns_per_unit", e.NsPerUnit, true)
		if e.Units <= 0 {
			bad("unit %s: units = %d, want > 0", key, e.Units)
		}
	}
	return errs
}
