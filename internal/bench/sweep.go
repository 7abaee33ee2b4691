package bench

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// SweepConfig shapes a fleet scaling sweep. Zero values take the
// defaults the committed BENCH_fleet.json was generated with, so
// `ticsbench -sweep` with no extra flags reproduces the baseline.
type SweepConfig struct {
	Ns      []int   // fleet sizes; default {1000, 10000, 100000}
	Workers []int   // worker counts per size; default {1, GOMAXPROCS} deduped
	App     string  // default "ghm"
	WallMs  float64 // per-device simulated wall budget; default 100
	Seed    uint64  // default 42
}

func (sc *SweepConfig) defaults() {
	if len(sc.Ns) == 0 {
		sc.Ns = []int{1_000, 10_000, 100_000}
	}
	if len(sc.Workers) == 0 {
		sc.Workers = []int{1, runtime.GOMAXPROCS(0)}
	}
	seen := map[int]bool{}
	var ws []int
	for _, w := range sc.Workers {
		if w > 0 && !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	sc.Workers = ws
	if sc.App == "" {
		sc.App = "ghm"
	}
	if sc.WallMs == 0 {
		sc.WallMs = 100
	}
	if sc.Seed == 0 {
		sc.Seed = 42
	}
}

func (sc SweepConfig) fleetConfig(n, workers int, telemetry bool) fleet.Config {
	return fleet.Config{
		Devices: n, Workers: workers, App: sc.App,
		Power: "harvest:40000,800", Seed: sc.Seed, WallMs: sc.WallMs,
		Link:    fleet.LinkParams{Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20},
		Collect: telemetry, Trace: telemetry, Profile: telemetry,
	}
}

// RunSweep measures the fleet at every size in sc and returns one
// entry per size, keyed FleetEntry.Key. Per size it runs the worker
// matrix with telemetry off, prices the full observability stack at
// the best worker count, and attributes peak RSS per size when the
// kernel lets us reset the high-water mark (obs.ResetPeakRSS);
// otherwise RSSResettable=false marks the number as monotone across
// the whole sweep. logf (may be nil) narrates progress — big sweeps
// run for many seconds.
func RunSweep(sc SweepConfig, logf func(format string, args ...any)) (map[string]*FleetEntry, error) {
	sc.defaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := map[string]*FleetEntry{}

	for _, n := range sc.Ns {
		resettable := obs.ResetPeakRSS()
		e := &FleetEntry{
			Devices: n, App: sc.App, WallMs: sc.WallMs, Source: "sweep",
			Workers: map[string]Point{}, RSSResettable: resettable,
		}

		bestWorkers := 0
		var bestRep *fleet.Report
		var bestAlloc uint64
		for _, w := range sc.Workers {
			pre := obs.SampleResources()
			rep, err := fleet.Run(sc.fleetConfig(n, w, false))
			if err != nil {
				return nil, fmt.Errorf("sweep n=%d workers=%d: %w", n, w, err)
			}
			alloc := rep.Resources.TotalAllocBytes - pre.TotalAllocBytes
			p := Point{
				DevicesPerSec:      float64(n) / rep.WallSeconds,
				DeviceCyclesPerSec: rep.Throughput,
			}
			e.Workers[fmt.Sprint(w)] = p
			logf("sweep n=%d workers=%d: %.0f devices/s, %.3gM device-cycles/s (%.0f ms round)",
				n, w, p.DevicesPerSec, p.DeviceCyclesPerSec/1e6, rep.WallSeconds*1000)
			if p.DevicesPerSec > e.Best.DevicesPerSec {
				e.Best, bestWorkers, bestRep, bestAlloc = p, w, rep, alloc
			}
		}
		if w1, ok := e.Workers["1"]; ok && w1.DevicesPerSec > 0 {
			e.SpeedupBestOverW1 = e.Best.DevicesPerSec / w1.DevicesPerSec
		}
		e.PhaseSeconds = fleet.PhaseMap(bestRep.Phases)
		e.BytesPerDevice = float64(bestAlloc) / float64(n)

		// Price the observability stack at the best worker count. The off
		// side re-runs rather than reusing bestRep so both sides see the
		// same cache/GC weather.
		offRep, err := fleet.Run(sc.fleetConfig(n, bestWorkers, false))
		if err != nil {
			return nil, fmt.Errorf("sweep n=%d telemetry-off: %w", n, err)
		}
		onRep, err := fleet.Run(sc.fleetConfig(n, bestWorkers, true))
		if err != nil {
			return nil, fmt.Errorf("sweep n=%d telemetry-on: %w", n, err)
		}
		off := Point{DevicesPerSec: float64(n) / offRep.WallSeconds, DeviceCyclesPerSec: offRep.Throughput}
		on := Point{DevicesPerSec: float64(n) / onRep.WallSeconds, DeviceCyclesPerSec: onRep.Throughput}
		e.Telemetry = &TelemetryPair{
			Off: off, On: on,
			OverheadPct: 100 * (off.DevicesPerSec - on.DevicesPerSec) / off.DevicesPerSec,
		}
		logf("sweep n=%d: telemetry overhead %.1f%%", n, e.Telemetry.OverheadPct)

		if rss := obs.SampleResources(); rss.PeakRSSBytes > 0 {
			e.PeakRSSBytes = rss.PeakRSSBytes
		}
		logf("sweep n=%d: best workers=%d, %.0f devices/s, peak RSS %.1f MB, %.0f B/device",
			n, bestWorkers, e.Best.DevicesPerSec, float64(e.PeakRSSBytes)/1e6, e.BytesPerDevice)
		out[e.Key()] = e
	}
	return out, nil
}
