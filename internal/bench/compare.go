package bench

import (
	"fmt"
	"io"
	"sort"
)

// DefaultTolerance is the relative slack -compare allows before calling
// a delta a regression: 0.25 means new numbers may be up to 25% worse
// than the baseline. Throughput on a shared CI runner is noisy; RSS is
// not, but GC timing still moves it between runs.
const DefaultTolerance = 0.25

// Regression is one gated metric that moved past tolerance in the bad
// direction.
type Regression struct {
	Key      string  `json:"key"`    // "n=1000", "opcode/Add", ...
	Metric   string  `json:"metric"` // "devices_per_sec", "peak_rss_bytes", "ns_per_instr"
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	DeltaPct float64 `json:"delta_pct"` // signed; positive = worse
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%, worse)", r.Key, r.Metric, r.Old, r.New, r.DeltaPct)
}

// Compare gates new against old: for every fleet key both ledgers
// carry, devices/sec must not drop and peak RSS must not rise by more
// than tolerance; for every shared opcode, ns/instr must not rise; for
// every shared gate key, the digest read and the ingest decode must not
// slow down; for every shared model-checker key, schedules/sec and
// states/sec must not drop; for every shared unit cost, ns per unit must
// not rise.
// Keys only one side has are skipped — adding a new sweep point is not
// a regression. A zero tolerance means DefaultTolerance; hosts with
// different CPU counts are never compared (one warning Regression-free
// note is written to warnings instead).
func Compare(old, new *File, tolerance float64, warnings io.Writer) []Regression {
	if tolerance == 0 {
		tolerance = DefaultTolerance
	}
	var regs []Regression
	if old.Host.CPUs != 0 && new.Host.CPUs != 0 && old.Host.CPUs != new.Host.CPUs {
		if warnings != nil {
			fmt.Fprintf(warnings, "bench: hosts differ (%d vs %d CPUs); skipping throughput/RSS gates\n",
				old.Host.CPUs, new.Host.CPUs)
		}
		return nil
	}

	for _, key := range old.FleetKeys() {
		oe, ne := old.Fleet[key], new.Fleet[key]
		if ne == nil {
			if warnings != nil {
				fmt.Fprintf(warnings, "bench: %s only in baseline; skipped\n", key)
			}
			continue
		}
		// Lower devices/sec is worse.
		if oe.Best.DevicesPerSec > 0 && ne.Best.DevicesPerSec < oe.Best.DevicesPerSec*(1-tolerance) {
			regs = append(regs, Regression{
				Key: key, Metric: "devices_per_sec",
				Old: oe.Best.DevicesPerSec, New: ne.Best.DevicesPerSec,
				DeltaPct: 100 * (oe.Best.DevicesPerSec - ne.Best.DevicesPerSec) / oe.Best.DevicesPerSec,
			})
		}
		// Higher bytes/device is worse: per-device footprint is the wall
		// between today's fleets and 10⁶ devices, so its regressions gate
		// like throughput does. Only gated when both sides measured it.
		if oe.BytesPerDevice > 0 && ne.BytesPerDevice > 0 &&
			ne.BytesPerDevice > oe.BytesPerDevice*(1+tolerance) {
			regs = append(regs, Regression{
				Key: key, Metric: "bytes_per_device",
				Old: oe.BytesPerDevice, New: ne.BytesPerDevice,
				DeltaPct: 100 * (ne.BytesPerDevice - oe.BytesPerDevice) / oe.BytesPerDevice,
			})
		}
		// Higher peak RSS is worse. Only gate when both sides measured it
		// the same way (per-entry resets vs monotone-across-sweep are not
		// comparable).
		if oe.PeakRSSBytes > 0 && ne.PeakRSSBytes > 0 && oe.RSSResettable == ne.RSSResettable &&
			float64(ne.PeakRSSBytes) > float64(oe.PeakRSSBytes)*(1+tolerance) {
			regs = append(regs, Regression{
				Key: key, Metric: "peak_rss_bytes",
				Old: float64(oe.PeakRSSBytes), New: float64(ne.PeakRSSBytes),
				DeltaPct: 100 * (float64(ne.PeakRSSBytes) - float64(oe.PeakRSSBytes)) / float64(oe.PeakRSSBytes),
			})
		}
	}

	opNames := make([]string, 0, len(old.Opcodes))
	for name := range old.Opcodes {
		opNames = append(opNames, name)
	}
	sort.Strings(opNames)
	for _, name := range opNames {
		oe, ne := old.Opcodes[name], new.Opcodes[name]
		if ne == nil {
			continue
		}
		if oe.NsPerInstr > 0 && ne.NsPerInstr > oe.NsPerInstr*(1+tolerance) {
			regs = append(regs, Regression{
				Key: "opcode/" + name, Metric: "ns_per_instr",
				Old: oe.NsPerInstr, New: ne.NsPerInstr,
				DeltaPct: 100 * (ne.NsPerInstr - oe.NsPerInstr) / oe.NsPerInstr,
			})
		}
	}

	gateKeys := make([]string, 0, len(old.Gate))
	for key := range old.Gate {
		gateKeys = append(gateKeys, key)
	}
	sort.Strings(gateKeys)
	for _, key := range gateKeys {
		oe, ne := old.Gate[key], new.Gate[key]
		if oe == nil || ne == nil {
			continue
		}
		for _, m := range []struct {
			name     string
			old, new float64
		}{{"digest_ms", oe.DigestMs, ne.DigestMs}, {"decode_us", oe.DecodeUs, ne.DecodeUs}} {
			if m.old > 0 && m.new > m.old*(1+tolerance) {
				regs = append(regs, Regression{
					Key: "gate/" + key, Metric: m.name,
					Old: m.old, New: m.new,
					DeltaPct: 100 * (m.new - m.old) / m.old,
				})
			}
		}
	}

	mcKeys := make([]string, 0, len(old.MC))
	for key := range old.MC {
		mcKeys = append(mcKeys, key)
	}
	sort.Strings(mcKeys)
	for _, key := range mcKeys {
		oe, ne := old.MC[key], new.MC[key]
		if oe == nil || ne == nil {
			continue
		}
		// Lower throughput is worse.
		for _, m := range []struct {
			name     string
			old, new float64
		}{{"schedules_per_sec", oe.SchedulesPerSec, ne.SchedulesPerSec}, {"states_per_sec", oe.StatesPerSec, ne.StatesPerSec}} {
			if m.old > 0 && m.new < m.old*(1-tolerance) {
				regs = append(regs, Regression{
					Key: "mc/" + key, Metric: m.name,
					Old: m.old, New: m.new,
					DeltaPct: 100 * (m.old - m.new) / m.old,
				})
			}
		}
	}

	unitKeys := make([]string, 0, len(old.Units))
	for key := range old.Units {
		unitKeys = append(unitKeys, key)
	}
	sort.Strings(unitKeys)
	for _, key := range unitKeys {
		oe, ne := old.Units[key], new.Units[key]
		if oe == nil || ne == nil {
			continue
		}
		if oe.NsPerUnit > 0 && ne.NsPerUnit > oe.NsPerUnit*(1+tolerance) {
			regs = append(regs, Regression{
				Key: "unit/" + key, Metric: "ns_per_unit",
				Old: oe.NsPerUnit, New: ne.NsPerUnit,
				DeltaPct: 100 * (ne.NsPerUnit - oe.NsPerUnit) / oe.NsPerUnit,
			})
		}
	}
	return regs
}
