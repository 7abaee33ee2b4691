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
// carry, devices/sec must not drop and bytes/device and peak RSS must
// not rise by more than tolerance; for every shared opcode, ns/instr
// must not rise; for every shared gate key, the digest read and the
// ingest decode must not slow down; for every shared model-checker key,
// schedules/sec and states/sec must not drop; for every shared unit
// cost, ns per unit must not rise.
// Keys only one side has are skipped — adding a new sweep point is not
// a regression. A zero tolerance means DefaultTolerance; hosts with
// different CPU counts are never compared (one warning Regression-free
// note is written to warnings instead).
func Compare(old, new *File, tolerance float64, warnings io.Writer) []Regression {
	if tolerance == 0 {
		tolerance = DefaultTolerance
	}
	if old.Host.CPUs != 0 && new.Host.CPUs != 0 && old.Host.CPUs != new.Host.CPUs {
		if warnings != nil {
			fmt.Fprintf(warnings, "bench: hosts differ (%d vs %d CPUs); skipping throughput/RSS gates\n",
				old.Host.CPUs, new.Host.CPUs)
		}
		return nil
	}
	var regs []Regression
	gate := func(key string, ms ...metric) {
		for _, m := range ms {
			if r, worse := m.regression(key, tolerance); worse {
				regs = append(regs, r)
			}
		}
	}

	for _, key := range old.FleetKeys() {
		oe, ne := old.Fleet[key], new.Fleet[key]
		if ne == nil {
			if warnings != nil {
				fmt.Fprintf(warnings, "bench: %s only in baseline; skipped\n", key)
			}
			continue
		}
		// Per-device footprint is the wall between today's fleets and 10⁶
		// devices, so it gates like throughput does.
		gate(key,
			metric{"devices_per_sec", oe.Best.DevicesPerSec, ne.Best.DevicesPerSec, true},
			metric{"bytes_per_device", oe.BytesPerDevice, ne.BytesPerDevice, false})
		// Peak RSS gates only when both sides measured it the same way
		// (per-entry resets vs monotone-across-sweep are not comparable).
		if oe.RSSResettable == ne.RSSResettable {
			gate(key, metric{"peak_rss_bytes", float64(oe.PeakRSSBytes), float64(ne.PeakRSSBytes), false})
		}
	}
	for _, key := range sharedKeys(old.Opcodes, new.Opcodes) {
		oe, ne := old.Opcodes[key], new.Opcodes[key]
		gate("opcode/"+key, metric{"ns_per_instr", oe.NsPerInstr, ne.NsPerInstr, false})
	}
	for _, key := range sharedKeys(old.Gate, new.Gate) {
		oe, ne := old.Gate[key], new.Gate[key]
		gate("gate/"+key,
			metric{"digest_ms", oe.DigestMs, ne.DigestMs, false},
			metric{"decode_us", oe.DecodeUs, ne.DecodeUs, false})
	}
	for _, key := range sharedKeys(old.MC, new.MC) {
		oe, ne := old.MC[key], new.MC[key]
		gate("mc/"+key,
			metric{"schedules_per_sec", oe.SchedulesPerSec, ne.SchedulesPerSec, true},
			metric{"states_per_sec", oe.StatesPerSec, ne.StatesPerSec, true})
	}
	for _, key := range sharedKeys(old.Units, new.Units) {
		oe, ne := old.Units[key], new.Units[key]
		gate("unit/"+key, metric{"ns_per_unit", oe.NsPerUnit, ne.NsPerUnit, false})
	}
	return regs
}

// metric is one gated number of a key both ledgers carry.
type metric struct {
	name     string
	old, new float64
	higher   bool // a higher value is better
}

// regression reports whether m moved worse by more than tolerance, and
// the Regression that records it. A metric the baseline did not measure
// (old <= 0) is not gated.
func (m metric) regression(key string, tolerance float64) (Regression, bool) {
	worse, delta := m.new > m.old*(1+tolerance), m.new-m.old
	if m.higher {
		worse, delta = m.new < m.old*(1-tolerance), m.old-m.new
	}
	if m.old <= 0 || !worse {
		return Regression{}, false
	}
	return Regression{Key: key, Metric: m.name, Old: m.old, New: m.new, DeltaPct: 100 * delta / m.old}, true
}

// sharedKeys returns, sorted, the keys whose entries both tables carry: a
// key only one side has is skipped, since adding a new point is not a
// regression.
func sharedKeys[E any](old, new map[string]*E) []string {
	var keys []string
	for key, oe := range old {
		if oe != nil && new[key] != nil {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}
