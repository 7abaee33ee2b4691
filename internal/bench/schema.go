// Package bench owns the repo's performance ledger: the versioned
// BENCH_fleet.json schema, merge-by-key persistence (so the fleet
// sweep, the n=64 benchmark and the opcode microbench can each
// update their slice of the file without clobbering the others), a
// schema validator, and the regression gate `ticsbench -compare` runs
// in CI. This is the measurement harness ROADMAP item 1 gates on:
// devices/sec and peak RSS tracked across n∈{1e3, 1e4, 1e5}.
package bench

import (
	"fmt"
	"runtime"
	"sort"
)

// SchemaVersion identifies the BENCH_fleet.json layout. Bump it on any
// incompatible reshaping; Parse refuses a ledger of any other version
// and one without the field.
const SchemaVersion = 1

// File is the whole ledger.
type File struct {
	SchemaVersion int `json:"schema_version"`
	// Host records where the numbers came from — a 1-CPU CI runner and
	// a 16-core workstation must never be compared as equals.
	Host Host `json:"host"`
	// Fleet holds one entry per fleet configuration, keyed by
	// FleetEntry.Key: "n=<devices>" for ghm, "<app>/n=<devices>" else.
	Fleet map[string]*FleetEntry `json:"fleet"`
	// Opcodes holds the per-opcode dispatch microbenchmark, keyed by
	// opcode name (ROADMAP item 2's baseline).
	Opcodes map[string]*OpcodeEntry `json:"opcodes,omitempty"`
	// MC holds the reset-point model checker's sweep throughput, keyed
	// "depth=<n>" (BenchmarkResetPointSweep).
	MC map[string]*MCEntry `json:"mc,omitempty"`
	// Gate holds the standalone gateway service's durable-ingest costs,
	// keyed "batch=<frames>" (BenchmarkGateIngest).
	Gate map[string]*GateEntry `json:"gate,omitempty"`
	// Units holds host costs per unit of simulated work, keyed by the
	// operation priced ("copy_charged": BenchmarkCopyCharged) — the unit
	// costs a layer decomposition multiplies by counted units.
	Units map[string]*UnitEntry `json:"units,omitempty"`
}

// Host describes the measuring machine.
type Host struct {
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// CurrentHost samples the running process's host description.
func CurrentHost() Host {
	return Host{
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// Point is one throughput measurement.
type Point struct {
	DevicesPerSec      float64 `json:"devices_per_sec"`
	DeviceCyclesPerSec float64 `json:"device_cycles_per_sec"`
}

// TelemetryPair prices the observability stack: the same fleet with
// collection+tracing+profiling on vs off.
type TelemetryPair struct {
	Off         Point   `json:"off"`
	On          Point   `json:"on"`
	OverheadPct float64 `json:"overhead_pct"`
}

// FleetEntry is one fleet configuration's numbers.
type FleetEntry struct {
	Devices int     `json:"devices"`
	App     string  `json:"app"`
	WallMs  float64 `json:"wall_ms,omitempty"` // per-device simulated wall budget
	Source  string  `json:"source"`            // "sweep" or "benchmark"

	// Best is the headline throughput (best worker count, telemetry off).
	Best Point `json:"best"`
	// Workers maps worker count → throughput at that count.
	Workers map[string]Point `json:"workers,omitempty"`
	// Telemetry prices the observability stack at the best worker count.
	Telemetry *TelemetryPair `json:"telemetry,omitempty"`

	// PeakRSSBytes is the host process's RSS high-water mark over this
	// entry's runs (per-entry when the kernel's clear_refs reset is
	// available, else monotone across the sweep — RSSResettable says
	// which). BytesPerDevice is host heap allocation per simulated
	// device of the best run.
	PeakRSSBytes   int64   `json:"peak_rss_bytes,omitempty"`
	RSSResettable  bool    `json:"rss_resettable,omitempty"`
	BytesPerDevice float64 `json:"bytes_per_device,omitempty"`

	// PhaseSeconds partitions the best run's round wall time: build,
	// devices, channel, gateway, telemetry.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`

	SpeedupBestOverW1 float64 `json:"speedup_best_over_w1,omitempty"`
}

// OpcodeEntry is one opcode's dispatch cost.
type OpcodeEntry struct {
	NsPerInstr float64 `json:"ns_per_instr"`
	Instrs     int64   `json:"instrs"` // dispatched instructions measured
}

// MCEntry is one model-checker sweep configuration's throughput: how
// many interrupted schedules the checker re-executes per wall second and
// how many simulated machine states (cycles) that explores.
type MCEntry struct {
	Program         string  `json:"program"` // program swept (app or label)
	Depth           int     `json:"depth"`
	Schedules       int     `json:"schedules"`       // schedules verified in the measured sweep
	CyclesExplored  int64   `json:"cycles_explored"` // simulated cycles across all schedules
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	StatesPerSec    float64 `json:"states_per_sec"` // explored cycles per wall second
}

// GateEntry is the ticsgate durable-ingest cost sheet at one batch
// size: sustained fsync-on-batch ingest rate, WAL space per frame, and
// how long reopening the store (snapshot load + WAL replay) takes. The
// DigestBatchFrames entry also prices one digest read and one ingest
// body decode.
type GateEntry struct {
	BatchFrames   int     `json:"batch_frames"`    // frames per ingested batch
	Batches       int     `json:"batches"`         // batches in the measured run
	FramesPerSec  float64 `json:"frames_per_sec"`  // durable ingest throughput
	WALBytesFrame float64 `json:"wal_bytes_frame"` // WAL bytes per ingested frame
	RecoveryMs    float64 `json:"recovery_ms"`     // Open() over the produced WAL
	// DigestMs is one Store.Summary over DigestRetained retained minima,
	// DigestFresh of them new since the previous read.
	DigestMs float64 `json:"digest_ms,omitempty"`
	// DecodeUs is one gate.DecodeIngest of a DigestBatchFrames-frame
	// json.Marshal body, best of several calls, in µs.
	DecodeUs float64 `json:"decode_us,omitempty"`
}

// UnitEntry is the host cost of one unit of an operation, measured by a
// microbenchmark over a fixed shape of the operation.
type UnitEntry struct {
	Unit      string  `json:"unit"`        // what one unit is, e.g. "word"
	Shape     string  `json:"shape"`       // the operation measured, e.g. "73 words, 2 passes"
	NsPerUnit float64 `json:"ns_per_unit"` // host ns per unit
	Units     int64   `json:"units"`       // units measured
}

// The digest-read row: the batch size whose gate entry carries
// digest_ms and decode_us, and the store state that read is priced at.
const (
	DigestBatchFrames = 512
	DigestRetained    = 100000
	DigestFresh       = 25000
)

// NewFile returns an empty ledger for the current host.
func NewFile() *File {
	return &File{
		SchemaVersion: SchemaVersion,
		Host:          CurrentHost(),
		Fleet:         map[string]*FleetEntry{},
	}
}

// FleetKey is the canonical fleet-entry key for a device count.
func FleetKey(devices int) string { return fmt.Sprintf("n=%d", devices) }

// Key is the key the entry is stored under: FleetKey for the ghm fleets
// the ledger's fleet rows have always run, "<app>/n=<devices>" for any
// other app, so rows of two apps never share a key.
func (e *FleetEntry) Key() string {
	if e.App == "ghm" {
		return FleetKey(e.Devices)
	}
	return e.App + "/" + FleetKey(e.Devices)
}

// SetFleet merges one fleet entry by key, leaving every other key
// untouched — how the sweep and the n=64 benchmark coexist.
func (f *File) SetFleet(key string, e *FleetEntry) {
	if f.Fleet == nil {
		f.Fleet = map[string]*FleetEntry{}
	}
	f.Fleet[key] = e
}

// SetOpcode merges one opcode entry by name.
func (f *File) SetOpcode(name string, e *OpcodeEntry) {
	if f.Opcodes == nil {
		f.Opcodes = map[string]*OpcodeEntry{}
	}
	f.Opcodes[name] = e
}

// MCKey is the canonical model-checker entry key for a sweep depth.
func MCKey(depth int) string { return fmt.Sprintf("depth=%d", depth) }

// SetMC merges one model-checker entry by key.
func (f *File) SetMC(key string, e *MCEntry) {
	if f.MC == nil {
		f.MC = map[string]*MCEntry{}
	}
	f.MC[key] = e
}

// GateKey is the canonical gate-entry key for a batch size.
func GateKey(batchFrames int) string { return fmt.Sprintf("batch=%d", batchFrames) }

// SetGate merges one gateway-service entry by key.
func (f *File) SetGate(key string, e *GateEntry) {
	if f.Gate == nil {
		f.Gate = map[string]*GateEntry{}
	}
	f.Gate[key] = e
}

// SetUnit merges one unit-cost entry by key.
func (f *File) SetUnit(key string, e *UnitEntry) {
	if f.Units == nil {
		f.Units = map[string]*UnitEntry{}
	}
	f.Units[key] = e
}

// FleetKeys returns the fleet keys sorted by device count (then
// lexically), for deterministic report order.
func (f *File) FleetKeys() []string {
	keys := make([]string, 0, len(f.Fleet))
	for k := range f.Fleet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		di, dj := f.Fleet[keys[i]].Devices, f.Fleet[keys[j]].Devices
		if di != dj {
			return di < dj
		}
		return keys[i] < keys[j]
	})
	return keys
}
