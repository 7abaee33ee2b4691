package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them; README.md gives what
// "work" and "op" are on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload that never enters a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"build.image_ms", "ms"},

	{"device.setup_us", "us"},
	{"mem.reset_us", "us"},
	{"vm.run_us", "us"},
	{"vm.host_ns_per_kcycle", "ns/kcycle"},
	{"obs.recorder_us", "us"},
	{"pool.idle_frac", "ratio"},
	{"vm.kcycles_per_device", "kcycles"},
	{"vm.power_failures_per_device", "count"},
	{"core.checkpoints_per_device", "count"},
	{"core.restores_per_device", "count"},
	{"core.logged_stores_per_device", "count"},
	{"mem.writes_per_device", "count"},
	{"fleet.completed_frac", "ratio"},
	{"fleet.starved_frac", "ratio"},
	{"fleet.timed_out_frac", "ratio"},
	{"fleet.faulted_frac", "ratio"},

	{"fleet.phase_s.build", "s"},
	{"fleet.phase_s.devices", "s"},
	{"fleet.phase_s.channel", "s"},
	{"fleet.phase_s.gateway", "s"},
	{"fleet.phase_s.telemetry", "s"},
	{"fleet.arrivals_per_device", "count"},
	{"fleet.frames_per_send", "count"},
	{"fleet.lost_frac", "ratio"},
	{"channel.ns_per_frame", "ns"},
	{"gateway.sort_ns_per_arrival", "ns"},
	{"gateway.accept_ns_per_arrival", "ns"},
	{"gateway.digest_ms", "ms"},
	{"gateway.useful_frac", "ratio"},
	{"gateway.expired_frac", "ratio"},
	{"trace.reconcile_devices", "ratio"},

	{"mc.oracle_build_ms", "ms"},
	{"mc.us_per_schedule.bc-d1", "us"},
	{"mc.us_per_schedule.cf-d1", "us"},
	{"mc.us_per_schedule.ghm-d1", "us"},
	{"mc.us_per_schedule.ar-d2", "us"},
	{"mc.host_ns_per_kcycle", "ns/kcycle"},
	{"mc.schedules", "count"},
	{"mc.dropped", "count"},
	{"mc.cycles_explored", "count"},
	{"mc.findings", "count"},

	{"gate.ack_p50_ms.wave", "ms"},
	{"gate.ack_p50_ms.trickle", "ms"},
	{"gate.ack_tail_ms.trickle", "ms"},
	{"gate.decode_us.wave", "us"},
	{"gate.decode_us.trickle", "us"},
	{"gate.ingest_us.wave", "us"},
	{"gate.ingest_us.trickle", "us"},
	{"gate.http_overhead_us.wave", "us"},
	{"gate.http_overhead_us.trickle", "us"},
	{"gate.compact_ms", "ms"},
	{"gate.snapshots", "count"},
	{"gate.digest_read_ms", "ms"},
	{"gate.digest_ms", "ms"},
	{"gate.fsyncs", "count"},
	{"gate.wal_bytes_per_frame", "B"},
	{"gate.recovery_ms", "ms"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not defined") // a typo in this package
}

// metric is one metric's samples within a run; its value is their median.
type metric struct {
	Name   string
	Unit   string
	Values []float64
}

func (m *metric) value() float64 { return quantile(m.Values, 0.5) }

// metricSet keeps metrics in the order they were first added.
type metricSet struct {
	defs []metricDef
	list []*metric
}

func (s *metricSet) get(name string) *metric {
	for _, m := range s.list {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// add appends samples to a metric, creating it on first use.
func (s *metricSet) add(name string, values ...float64) {
	m := s.get(name)
	if m == nil {
		m = &metric{Name: name, Unit: unitOf(s.defs, name)}
		s.list = append(s.list, m)
	}
	m.Values = append(m.Values, values...)
}

// fill adds a 0 for every defined metric the workload did not measure,
// so every run reports the full set.
func (s *metricSet) fill() {
	for _, d := range s.defs {
		if s.get(d.name) == nil {
			s.add(d.name, 0)
		}
	}
}

// print writes one line per metric: workload, name, value, unit, sample
// count and quartiles.
func (s *metricSet) print(w io.Writer, workload string) {
	for _, m := range s.list {
		fmt.Fprintf(w, "%s %s %s %s n=%d q1=%s q3=%s\n", workload, m.Name, num(m.value()), m.Unit,
			len(m.Values), num(quantile(m.Values, 0.25)), num(quantile(m.Values, 0.75)))
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// quantile is the q-quantile of vs by linear interpolation between order
// statistics (0 for no samples).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is the highest percentile with at least ten samples beyond it,
// capped at p99; with fewer than 20 samples no percentile qualifies and
// it is the slowest sample.
func tail(vs []float64) float64 {
	if len(vs) < 20 {
		return quantile(vs, 1)
	}
	return quantile(vs, math.Min(0.99, 1-10/float64(len(vs))))
}

// fastest is the time of an operation with every part at its fastest:
// the sum over the parts of the shortest of each part's times. Other
// tenants of a shared host only ever add time, so this is the steadiest
// estimate of the program's own speed; README.md gives the numbers.
func fastest(partMs ...[]float64) float64 {
	var sum float64
	for _, p := range partMs {
		sum += quantile(p, 0)
	}
	return sum
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
