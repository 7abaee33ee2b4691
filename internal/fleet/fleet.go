// Package fleet scales the single-device simulation out to a deployment:
// N devices — each its own vm.Machine, runtime instance, seeded power
// source, sensors and persistent clock — run concurrently on a
// work-stealing worker pool, report over a simulated lossy RF channel
// (per-link loss, duplication, delay, ARQ retransmits), and land on a
// gateway that deduplicates by (device, send-sequence) and accounts
// freshness against an @expires_after-style deadline.
//
// Determinism is load-bearing. Per-device seeds derive from the fleet
// seed through a splitmix64 mixer, every device owns all of its mutable
// state (no shared RNGs anywhere), the channel pass runs single-threaded
// in device-index order after each wave, and the gateway retains an
// order-independent minimum per (device, seq) — so a fleet's gateway log
// digest and merged metrics are byte-identical whether it ran on 1
// worker or GOMAXPROCS workers, in one wave or many. Any single device of
// a fleet can be exported as an internal/replay manifest and re-executed
// bit-identically for debugging.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	tics "repro"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Config describes a fleet run. The per-device fields mirror
// replay.Spec on purpose: device i of a fleet *is* the single-device
// run DeviceSpec(i) describes, which is what makes fleet anomalies
// exportable to the single-device record/replay tooling.
type Config struct {
	Devices int // fleet size (default 1)
	Workers int // worker pool size (0 = GOMAXPROCS)

	App     string // built-in benchmark name, or
	Source  string // inline TICS-C source
	Runtime string // runtime kind (default "tics")
	Segment int    // TICS segment bytes (0 = minimum)

	Power string // power spec, replay.ParsePower syntax (default "harvest:40000,800")
	Clock string // clock spec, replay.ParseClock syntax (default "perfect")
	Seed  uint64 // fleet seed; device seeds derive from it via DeviceSeed

	TimerMs   float64 // timer-checkpoint period (0 = off)
	WallMs    float64 // per-device wall budget (0 = run to completion)
	MaxCycles int64   // per-device cycle watchdog (0 = vm default)

	// Virtualize turns on exactly-once sends at the device (the paper's
	// I/O virtualization); off, the raw radio duplicates replayed sends
	// and only the gateway's dedup absorbs them.
	Virtualize bool

	Link        LinkParams // RF channel model, identical per link
	FreshnessMs float64    // gateway end-to-end freshness deadline (0 = off)

	// Remote streams each wave's arrivals to an out-of-process gateway
	// (ticsgate over HTTP via internal/gate.Client) instead of the
	// in-process gateway; the report's gateway fields come from
	// Remote.Finalize. Nil = in-process gateway, the default.
	Remote RemoteGateway

	// Collect attaches a flight recorder to every device and folds the
	// devices' metrics into Report.Metrics (see Run for how).
	Collect bool

	// Trace enables end-to-end message telemetry: a span chain per
	// (device, committed send seq) — emit, every channel attempt, gateway
	// verdict — collected by the deterministic channel pass, closed when
	// the run finishes, and exposed as Report.Telemetry. Independent of
	// Collect; costs nothing per device.
	Trace bool

	// Profile turns on each device's cycle profiler and merges the
	// per-device folded stacks into one fleet-wide flame graph
	// (Report.Profile). Implies attaching recorders like Collect does.
	Profile bool

	// AnomalyK is the MAD multiplier of the outlier pass (0 = the
	// DefaultAnomalyK modified-z-score cut).
	AnomalyK float64

	// Wave is the number of devices simulated between streaming channel
	// handoffs (0 = automatic). Each wave's send logs are transmitted and
	// released before the next wave runs, and pooled machines are reset
	// and reused across waves, so live per-device state is bounded by one
	// wave regardless of fleet size. Every externally visible result is
	// byte-identical for any Wave value.
	Wave int
}

// DeviceSeed derives device i's seed from the fleet seed with a
// splitmix64-style mixer. The derivation is position-based and
// stateless, so it does not depend on the order devices are simulated
// in — the root of the fleet's worker-count independence.
func DeviceSeed(fleetSeed uint64, dev int) uint64 {
	z := fleetSeed + 0x9E3779B97F4A7C15*uint64(dev+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15 // seed 0 collapses some seeded sources
	}
	return z
}

// DeviceSpec returns the replay spec describing device dev of this
// fleet — the handle for exporting a fleet member to the single-device
// tooling (ticsrun -replay, the auditor, the bisector).
func (c Config) DeviceSpec(dev int) replay.Spec {
	spec := replay.Spec{
		App:        c.App,
		Source:     c.Source,
		Runtime:    c.Runtime,
		Segment:    c.Segment,
		Power:      c.Power,
		Clock:      c.Clock,
		Seed:       DeviceSeed(c.Seed, dev),
		TimerMs:    c.TimerMs,
		WallMs:     c.WallMs,
		MaxCycles:  c.MaxCycles,
		Virtualize: c.Virtualize,
	}
	if spec.Runtime == "" {
		spec.Runtime = "tics"
	}
	if spec.Power == "" {
		spec.Power = "harvest:40000,800"
	}
	if spec.Clock == "" {
		spec.Clock = "perfect"
	}
	return spec
}

// DeviceOutcome is one device's run, collected by index. Res.SendLog is
// consumed by the streaming channel pass and freed as the device's wave
// completes; Sends keeps the raw-radio packet count it had.
type DeviceOutcome struct {
	ID    int
	Seed  uint64
	Sends int // packets the device offered to the radio (len of the consumed SendLog)
	// UniqueSends is the count of distinct committed sequence numbers
	// among them; seqs are contiguous from 0, so the device's packets
	// carried exactly seqs [0, UniqueSends).
	UniqueSends int
	Res         vm.Result
	Err         error
}

// Report is a fleet run's aggregate result.
type Report struct {
	Devices int     `json:"devices"`
	Workers int     `json:"workers"`
	Seed    uint64  `json:"seed"`
	Elapsed float64 `json:"elapsed_sec"` // host wall time of the device phase

	// Phases partitions the round's host wall time: image build, device
	// execution, channel pass, gateway pass, telemetry render — always
	// all five, always in that order (worker-count independent
	// structure; only the durations vary). WallSeconds is the round
	// total the partition reconciles against.
	Phases      []PhaseTime `json:"phases"`
	WallSeconds float64     `json:"wall_seconds"`

	// Resources samples the host process (heap, GC, goroutines, RSS)
	// at the end of the round — the fleet_resource_* series.
	Resources obs.ResourceSnapshot `json:"resources"`

	TotalCycles int64   `json:"total_cycles"`          // simulated cycles across all devices
	Throughput  float64 `json:"device_cycles_per_sec"` // TotalCycles / Elapsed

	Completed int `json:"completed"`
	Starved   int `json:"starved"`
	TimedOut  int `json:"timed_out"`
	Faulted   int `json:"faulted"`

	Sends       int64 `json:"sends"`        // packets offered to the radios (incl. device-side replays)
	UniqueSends int64 `json:"unique_sends"` // distinct (device, seq) packets
	Link        LinkStats
	Gateway     GatewayStats
	Lost        int64   `json:"lost"` // unique packets that never reached the gateway
	LatencyP50  float64 `json:"latency_p50_ms"`
	LatencyP99  float64 `json:"latency_p99_ms"`
	Digest      string  `json:"digest"` // gateway log digest (determinism witness)

	// Anomalies is the deterministic outlier pass over per-device
	// outcomes: stragglers, livelock suspects, freshness hotspots.
	Anomalies []Anomaly `json:"anomalies,omitempty"`

	// Metrics is the fold of every device's recorder metrics (Collect
	// only), plus fleet_* rollup counters.
	Metrics *obs.Registry `json:"-"`

	// Telemetry holds the per-message span chains (Trace only).
	Telemetry *Telemetry `json:"-"`

	// Profile is the fleet-wide merge of every device's cycle profile
	// (Profile only) — one flame graph over the whole deployment.
	Profile *obs.Profile `json:"-"`

	Outcomes []DeviceOutcome `json:"-"`
	gw       *Gateway
	// cfg and img let DeviceRegistry re-run a device (Collect or Profile).
	cfg *Config
	img *tics.Image
}

// GatewayLog returns the accepted deliveries in observation order (nil
// for a Report without a live gateway, e.g. one decoded from JSON).
func (r *Report) GatewayLog() []Delivery {
	if r.gw == nil {
		return nil
	}
	return r.gw.Log()
}

// DeviceLog returns the deliveries the gateway attributed to device dev
// (nil for a Report without a live gateway).
func (r *Report) DeviceLog(dev int) []Delivery {
	if r.gw == nil {
		return nil
	}
	return r.gw.DeviceLog(dev)
}

// DeviceRegistry returns device dev's own metrics registry (nil unless
// the fleet ran with Collect or Profile, or when dev is out of range). Run keeps no
// per-device registries — each worker folds its devices into one — so
// this re-runs device dev: it is the single-device run
// cfg.DeviceSpec(dev) describes, and with the same recorder options it
// records the same metrics. It costs one device run per call.
func (r *Report) DeviceRegistry(dev int) *obs.Registry {
	if r.cfg == nil || dev < 0 || dev >= r.Devices {
		return nil
	}
	rec := newDeviceRecorder(*r.cfg)
	m, err := r.cfg.DeviceSpec(dev).Machine(r.img, nil, nil, rec)
	if err != nil {
		return nil
	}
	m.Run()
	return rec.Metrics()
}

// WritePrometheus writes the round in Prometheus text format: the
// folded device registry (when the round collected one), then one
// registry holding the flagged devices as
// fleet_anomaly_device{device,kind}, the phase partition as
// fleet_phase_seconds{phase} and the host sample as fleet_resource_*.
// An alert can fire on the fleet_anomaly_* totals and a dashboard can
// name the device.
func (r *Report) WritePrometheus(w io.Writer) error {
	if r.Metrics != nil {
		if err := r.Metrics.WritePrometheus(w); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	for _, a := range r.Anomalies {
		reg.LabeledGauge("fleet_anomaly_device", "device", strconv.Itoa(a.Dev), "kind", a.Kind).Set(a.Value)
	}
	for _, p := range r.Phases {
		reg.LabeledGauge("fleet_phase_seconds", "phase", p.Phase).Set(p.Seconds)
	}
	r.Resources.SetGauges(reg, "fleet_resource_")
	return reg.WritePrometheus(w)
}

// newDeviceRecorder builds the recorder a fleet device runs under. A
// small ring: fleet aggregation wants the metrics (and, with Profile,
// the folded stacks), not the event history (export a device to replay
// for that).
func newDeviceRecorder(cfg Config) *obs.Recorder {
	return obs.NewRecorder(obs.Options{RingCap: 64, Profile: cfg.Profile})
}

// slot is one worker's share of the pool: a machine reset between
// devices (nil until first use) and, when collecting, one recorder
// rearmed before each device so every device the slot runs folds into
// its registry and profile.
type slot struct {
	m   *vm.Machine
	rec *obs.Recorder
}

// waveSize returns the number of devices simulated between streaming
// channel handoffs: small enough to bound the live send logs, large
// enough that the per-wave pool barrier is noise against device runtime.
func (c Config) waveSize(workers int) int {
	if c.Wave > 0 {
		return c.Wave
	}
	w := 256 * workers
	if w < 1024 {
		w = 1024
	}
	return w
}

// uniqueSends counts the distinct sequence numbers in a device's send
// log without allocating: committed seqs are contiguous from 0 and a
// rollback can only rewind the counter, so the distinct count is the
// running frontier max(seq)+1. Pinned against the map-based count by
// TestUniqueSendsMatchesSet.
func uniqueSends(log []vm.SendRec) int64 {
	var u int64
	for i := range log {
		if log[i].Seq >= u {
			u = log[i].Seq + 1
		}
	}
	return u
}

// Run simulates the fleet wave by wave: each wave's devices execute in
// parallel on the worker pool — machines drawn from a small reuse pool
// and reset between devices — and the wave's send logs stream straight
// into the deterministic single-threaded channel pass (and are released)
// before the next wave starts. The channel pass hands the wave's
// arrivals to the gateway — the in-process core, or a remote one — and
// drops them. The gateway keeps an order-independent minimum per
// (device, seq), so the telemetry and merge passes that close the run
// see the same state whatever the worker count, wave size, or pooled
// versus fresh machines, and every externally visible result stays
// byte-identical across them.
func Run(cfg Config) (*Report, error) {
	n := cfg.Devices
	if n <= 0 {
		n = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pc := newPhaseClock()
	// Build once, share everywhere: the linked image is immutable after
	// Build (machines fork its post-link snapshot copy-on-write), and it
	// is by far the most expensive per-device setup cost.
	pc.enter(PhaseBuild)
	img, _, err := replay.BuildImage(cfg.DeviceSpec(0))
	if err != nil {
		return nil, err
	}

	outcomes := make([]DeviceOutcome, n)
	collect := cfg.Collect || cfg.Profile

	// The pool holds one slot per worker. A slot's machine and recorder
	// materialize on first claim and are reset (machine) and rearmed
	// (recorder) between devices.
	slots := make([]slot, workers)
	pool := make(chan *slot, workers)
	for i := range slots {
		pool <- &slots[i]
	}

	rep := &Report{
		Devices:  n,
		Workers:  workers,
		Seed:     cfg.Seed,
		Outcomes: outcomes,
	}
	if collect {
		rep.cfg, rep.img = &cfg, img
	}
	var tel *Telemetry
	if cfg.Trace {
		tel = NewTelemetry(n, cfg.FreshnessMs)
	}
	var gw *Gateway
	if cfg.Remote == nil {
		gw = NewGateway(cfg.FreshnessMs)
	}
	var elapsed float64
	wave := cfg.waveSize(workers)
	for lo := 0; lo < n; lo += wave {
		hi := lo + wave
		if hi > n {
			hi = n
		}
		pc.enter(PhaseDevices)
		start := time.Now()
		ParallelFor(hi-lo, workers, func(k int) {
			s := <-pool
			outcomes[lo+k] = runDevice(img, cfg, lo+k, s)
			pool <- s
		})
		elapsed += time.Since(start).Seconds()
		for i := lo; i < hi; i++ {
			if outcomes[i].Err != nil {
				return nil, fmt.Errorf("fleet: device %d: %w", i, outcomes[i].Err)
			}
		}

		// Streaming handoff: this wave's send logs feed the channel pass
		// in device order and are dropped before the next wave
		// materializes its own; the wave's arrivals then go to the
		// gateway and are dropped too, so the in-flight arrival buffer
		// is one wave deep. The channel and gateway phases accumulate
		// across re-entries.
		pc.enter(PhaseChannel)
		var waveArr []Arrival
		for i := lo; i < hi; i++ {
			log := outcomes[i].Res.SendLog
			outcomes[i].Sends = len(log)
			outcomes[i].UniqueSends = int(uniqueSends(log))
			rep.Sends += int64(len(log))
			rep.UniqueSends += int64(outcomes[i].UniqueSends)
			devArr, st := transmit(i, DeviceSeed(cfg.Seed, i), cfg.Link, log, tel)
			rep.Link.add(st)
			waveArr = append(waveArr, devArr...)
			outcomes[i].Res.SendLog = nil
		}
		pc.enter(PhaseGateway)
		if cfg.Remote != nil {
			if err := cfg.Remote.IngestWave(waveArr); err != nil {
				return nil, fmt.Errorf("fleet: remote gateway ingest: %w", err)
			}
		} else {
			for _, a := range waveArr {
				gw.Accept(a)
			}
		}
	}
	rep.Elapsed = elapsed
	for i := range outcomes {
		res := &outcomes[i].Res
		rep.TotalCycles += res.Cycles
		switch {
		case res.Fault != nil:
			rep.Faulted++
		case res.Starved:
			rep.Starved++
		case res.TimedOut:
			rep.TimedOut++
		case res.Completed:
			rep.Completed++
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.TotalCycles) / elapsed
	}

	// The gateway's accounting is a pure function of the arrival set:
	// the in-process core and internal/gate both retain the
	// ArrivalBefore-minimal arrival per (device, seq), so neither the
	// digest nor any span chain depends on how the pool scheduled the
	// device waves, and a remote summary equals the in-process one.
	pc.enter(PhaseGateway)
	var sum RemoteSummary
	if cfg.Remote != nil {
		if sum, err = cfg.Remote.Finalize(); err != nil {
			return nil, fmt.Errorf("fleet: remote gateway finalize: %w", err)
		}
	} else {
		sum = gw.Summary()
		rep.gw = gw
	}
	rep.Gateway = sum.Stats
	rep.Lost = rep.UniqueSends - sum.Unique
	rep.LatencyP50 = sum.P50Ms
	rep.LatencyP99 = sum.P99Ms
	rep.Digest = sum.Digest
	pc.enter(PhaseTelemetry)
	tel.finalize(gw)
	rep.Telemetry = tel
	rep.Anomalies = DetectAnomalies(rep, cfg.AnomalyK)

	if collect {
		// Each slot's registry already holds the sum over the devices it
		// ran, in whatever order the pool handed them out. That fold is
		// exact, so the merge below equals a per-device merge in device
		// order: every value observed into a recorder registry is an
		// integer (counters, undo-log lengths, cycle and byte counts), so
		// counts, histogram sums, minima and maxima add and compare
		// without rounding however they are grouped. The trace_ring_cap
		// gauge, a sum of ring capacities, is integer-valued too.
		merged := obs.NewRegistry()
		var profiles []obs.Profile
		for _, s := range slots {
			if s.rec == nil {
				continue
			}
			if err := merged.Merge(s.rec.Metrics()); err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			if cfg.Profile {
				profiles = append(profiles, s.rec.Profile())
			}
		}
		if cfg.Profile {
			p := obs.MergeProfiles(profiles...)
			rep.Profile = &p
		}
		if err := addRollups(merged, rep); err != nil {
			return nil, err
		}
		rep.Metrics = merged
	}
	rep.Phases, rep.WallSeconds = pc.finish()
	rep.Resources = obs.SampleResources()
	return rep, nil
}

// addRollups adds the fleet_* rollups of a finished round to the folded
// device metrics.
func addRollups(reg *obs.Registry, rep *Report) error {
	reg.Add("fleet_devices", int64(rep.Devices))
	reg.Add("fleet_total_cycles", rep.TotalCycles)
	reg.Add("fleet_sends_unique", rep.UniqueSends)
	reg.Add("fleet_gateway_delivered", rep.Gateway.Delivered)
	reg.Add("fleet_gateway_duplicates", rep.Gateway.Duplicates)
	reg.Add("fleet_gateway_expired", rep.Gateway.Expired)
	reg.Add("fleet_packets_lost", rep.Lost)
	// The gateway's latency histogram lands in the rollup under the
	// same bounds it was observed with, so a Prometheus
	// histogram_quantile over the exported buckets agrees with
	// Report.LatencyP50/P99 (both are obs.Histogram.Quantile). A
	// remote-attached fleet has no local histogram — its latency
	// surface is the service's own /metrics.
	if rep.gw != nil {
		if err := reg.RegisterHistogram("fleet_gateway_latency_ms", LatencyBounds).
			Merge(rep.gw.LatencyHistogram()); err != nil {
			return fmt.Errorf("fleet: latency rollup: %w", err)
		}
	}
	for kind, c := range anomalyCounts(rep.Anomalies) {
		reg.Add("fleet_anomaly_"+kind, c)
	}
	reg.Add("fleet_anomalies", int64(len(rep.Anomalies)))
	return nil
}

// runDevice executes device dev as the single-device run
// cfg.DeviceSpec(dev) describes — replay.Spec.Machine gives it its own
// seeded power source, sensor bank and clock. The slot's machine, if it
// has one, is reset to a fresh fork of the shared image before running,
// which is indistinguishable from a new machine; the slot's recorder is
// rearmed, so the device records exactly what a fresh recorder would and
// adds it to what the slot's earlier devices left there. Nothing here
// may touch state shared with another in-flight device — the -race
// fleet test enforces it.
func runDevice(img *tics.Image, cfg Config, dev int, s *slot) DeviceOutcome {
	spec := cfg.DeviceSpec(dev)
	out := DeviceOutcome{ID: dev, Seed: spec.Seed}
	if cfg.Collect || cfg.Profile {
		if s.rec == nil {
			s.rec = newDeviceRecorder(cfg)
		} else {
			s.rec.Rearm()
		}
	}
	var err error
	if s.m, err = spec.Machine(img, s.m, nil, s.rec); err != nil {
		out.Err = err
		return out
	}
	// A program fault is a device outcome, not a fleet error; it is
	// already folded into Res.Fault. Only setup errors abort the fleet.
	// Run's trailing CommitObservables flushes pending attribution, so
	// the slot's profile partitions its devices' cycles exactly.
	out.Res, _ = s.m.Run()
	return out
}

// ExportDevice records device dev of the fleet as a replay manifest —
// the bridge from "device 371 looks wrong in the fleet" to the
// single-device auditor/replay/bisect tooling. The recorded run executes
// the same spec with the same derived seed, so its result digest matches
// the fleet outcome and the manifest re-verifies via replay.VerifyReplay.
func ExportDevice(cfg Config, dev int) (*replay.Manifest, *replay.Run, error) {
	n := cfg.Devices
	if n <= 0 {
		n = 1
	}
	if dev < 0 || dev >= n {
		return nil, nil, errors.New("fleet: device index out of range")
	}
	return replay.Record(cfg.DeviceSpec(dev), nil)
}
