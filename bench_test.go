// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact — run `go test -bench=. -benchmem`)
// plus micro-benchmarks of the runtime's hot operations and the ablation
// studies called out in DESIGN.md. Custom metrics report the *simulated*
// quantities (cycles, checkpoints, violations); ns/op measures the
// simulator itself.
package tics_test

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/mc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/timekeeper"
	"repro/internal/vm"
)

// ---- One benchmark per paper artifact ----

func BenchmarkTable1GHM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		rows := rep.Data["rows"].([]experiments.Table1Row)
		consistent := 0
		for _, r := range rows {
			if r.Consistent {
				consistent++
			}
		}
		b.ReportMetric(float64(consistent), "consistent-rows")
	}
}

func BenchmarkTable2AR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		manual := rep.Data["manual"].(experiments.Table2Result)
		withTICS := rep.Data["tics"].(experiments.Table2Result)
		b.ReportMetric(float64(manual.TimelyBranch.Observed+manual.Misalignment.Observed+manual.Expiration.Observed), "violations-manual")
		b.ReportMetric(float64(withTICS.TimelyBranch.Observed+withTICS.Misalignment.Observed+withTICS.Expiration.Observed), "violations-tics")
	}
}

func BenchmarkTable3Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		cells := rep.Data["cells"].([]experiments.Table3Cell)
		for _, c := range cells {
			if c.App == "ar" && c.Runtime == "TICS" {
				b.ReportMetric(float64(c.Data), "ar-tics-data-B")
			}
		}
	}
}

func BenchmarkTable4Ops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		ms := rep.Data["measurements"].([]experiments.Table4Measurement)
		for _, m := range ms {
			if m.Operation == "Pointer access" && m.Config == "log 4 B" {
				b.ReportMetric(float64(m.Cycles), "logged-store-cycles")
			}
		}
	}
}

func BenchmarkTable5Probes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Data["stale"].(int)), "stale-windows")
	}
}

func BenchmarkFig9Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		points := rep.Data["points"].([]experiments.Fig9Point)
		for _, p := range points {
			if p.App == "bc" && p.Config == "TICS-S2*" {
				b.ReportMetric(float64(p.Cycles), "bc-tics-cycles")
			}
		}
	}
}

func BenchmarkFig10Study(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fleet throughput (internal/fleet) ----

// BenchmarkFleetThroughput runs whole fleets at several worker counts and
// reports simulated device-cycles per wall second plus devices per
// second. On a multi-core host the workers=4 run should beat workers=1
// by >2× on the 64-device fleet; on a single-core host the pool
// degrades to ~1× (the JSON records the CPU count so the two are not
// confused). The n=64 results are written to BENCH_fleet.json — the CI
// smoke step emits it with `-bench FleetThroughput -benchtime 1x`.
func BenchmarkFleetThroughput(b *testing.B) {
	byWorkers := map[int]map[string]float64{}
	for _, n := range []int{16, 64} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				cfg := fleet.Config{
					Devices: n, Workers: workers, App: "ghm",
					Power: "harvest:40000,800", Seed: 42, WallMs: 500,
					Link: fleet.LinkParams{Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20},
				}
				var rep *fleet.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = fleet.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				devPerSec := float64(n) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(rep.Throughput, "device-cycles/s")
				b.ReportMetric(devPerSec, "devices/s")
				if n == 64 {
					byWorkers[workers] = map[string]float64{
						"devices_per_sec":       devPerSec,
						"device_cycles_per_sec": rep.Throughput,
					}
				}
			})
		}
	}
	// Telemetry overhead pair: the same n=64 fleet with the full
	// observability stack on (metrics collection, per-message span
	// tracing, cycle profiles, anomaly pass) vs everything off. The
	// acceptance bar is ≤15% on devices/sec. CI runs this with
	// -benchtime 1x on noisy shared runners, so the two sides are
	// measured as interleaved pairs (drift hits both equally) and the
	// recorded number is each side's best round.
	telemetry := map[string]map[string]float64{}
	b.Run("n=64/telemetry", func(b *testing.B) {
		mkCfg := func(tele bool) fleet.Config {
			return fleet.Config{
				Devices: 64, Workers: 4, App: "ghm",
				Power: "harvest:40000,800", Seed: 42, WallMs: 500,
				Link:        fleet.LinkParams{Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20},
				FreshnessMs: 200,
				Collect:     tele, Trace: tele, Profile: tele,
			}
		}
		// One round is ~12ms, so a generous floor is cheap and the min
		// converges even on a noisy shared runner.
		rounds := b.N
		if rounds < 40 {
			rounds = 40
		}
		best := map[bool]time.Duration{false: 1<<63 - 1, true: 1<<63 - 1}
		thr := map[bool]float64{}
		for i := 0; i < rounds; i++ {
			for _, tele := range []bool{false, true} {
				t0 := time.Now()
				rep, err := fleet.Run(mkCfg(tele))
				if err != nil {
					b.Fatal(err)
				}
				if d := time.Since(t0); d < best[tele] {
					best[tele] = d
					thr[tele] = rep.Throughput
				}
			}
		}
		for _, tele := range []bool{false, true} {
			name := "off"
			if tele {
				name = "on"
			}
			telemetry[name] = map[string]float64{
				"devices_per_sec":       64 / best[tele].Seconds(),
				"device_cycles_per_sec": thr[tele],
			}
		}
		b.ReportMetric(telemetry["off"]["devices_per_sec"], "devices-off/s")
		b.ReportMetric(telemetry["on"]["devices_per_sec"], "devices-on/s")
		b.ReportMetric(100*(telemetry["off"]["devices_per_sec"]-telemetry["on"]["devices_per_sec"])/
			telemetry["off"]["devices_per_sec"], "overhead-%")
	})
	if len(byWorkers) == 0 {
		return // sub-benchmark filter excluded the n=64 runs
	}
	// Merge the n=64 entry into the versioned ledger by key: the scaling
	// sweep's n=1e3..1e5 entries and the opcode table stay untouched
	// (internal/bench owns the schema and the legacy-file migration).
	entry := &bench.FleetEntry{
		Devices: 64, App: "ghm", WallMs: 500, Source: "benchmark",
		Workers: map[string]bench.Point{},
	}
	for w, m := range byWorkers {
		p := bench.Point{
			DevicesPerSec:      m["devices_per_sec"],
			DeviceCyclesPerSec: m["device_cycles_per_sec"],
		}
		entry.Workers[fmt.Sprint(w)] = p
		if p.DevicesPerSec > entry.Best.DevicesPerSec {
			entry.Best = p
		}
	}
	if w1, ok := byWorkers[1]; ok && w1["devices_per_sec"] > 0 {
		entry.SpeedupBestOverW1 = entry.Best.DevicesPerSec / w1["devices_per_sec"]
	}
	if off, on := telemetry["off"], telemetry["on"]; off != nil && on != nil {
		entry.Telemetry = &bench.TelemetryPair{
			Off: bench.Point{DevicesPerSec: off["devices_per_sec"], DeviceCyclesPerSec: off["device_cycles_per_sec"]},
			On:  bench.Point{DevicesPerSec: on["devices_per_sec"], DeviceCyclesPerSec: on["device_cycles_per_sec"]},
			OverheadPct: 100 * (off["devices_per_sec"] - on["devices_per_sec"]) /
				off["devices_per_sec"],
		}
	}
	err := bench.Update("BENCH_fleet.json", func(f *bench.File) error {
		f.SetFleet(bench.FleetKey(64), entry)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// ---- Per-benchmark-app simulated execution ----

func benchApp(b *testing.B, app apps.App, kind tics.RuntimeKind) {
	img, err := tics.Build(app.Source, tics.BuildOptions{Runtime: kind, SegmentBytes: 512, StackBytes: 4096})
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := tics.NewMachine(img, tics.RunOptions{
			Sensors:        sensors.NewBank(3),
			AutoCpPeriodMs: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			b.Fatalf("%v %+v", err, res)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkAppAR(b *testing.B) { benchApp(b, apps.AR(), tics.RTTICS) }
func BenchmarkAppBC(b *testing.B) { benchApp(b, apps.BC(), tics.RTTICS) }
func BenchmarkAppCF(b *testing.B) { benchApp(b, apps.CF(), tics.RTTICS) }

// ---- Runtime micro-benchmarks (host-side speed of the simulator) ----

func microRig(b *testing.B, segBytes int) (*vm.Machine, *core.TICS) {
	b.Helper()
	prog, err := cc.Compile(`int g; int main() { g = 1; return 0; }`, cc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{SegmentBytes: segBytes, StackBytes: 2048}
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.New(img, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt})
	if err != nil {
		b.Fatal(err)
	}
	m.PowerOn(1 << 60)
	rt.Boot(m, true)
	return m, rt
}

func BenchmarkCheckpoint(b *testing.B) {
	for _, seg := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("segment-%dB", seg), func(b *testing.B) {
			m, rt := microRig(b, seg)
			c0 := m.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Checkpoint(m, vm.CpManual)
			}
			b.ReportMetric(float64(m.Cycles()-c0)/float64(b.N), "sim-cycles/op")
		})
	}
}

// copyWords is the size of BenchmarkCopyCharged's copy: the mean words
// per CopyCharged call of the device-mix ar/mementos fleet, whose
// checkpoints copy the globals and the used stack.
const copyWords = 73

// BenchmarkCopyCharged prices a Mementos-sized checkpoint copy on the
// host: copyWords words at two passes, charged and copied inside one
// window, reported as ns per charged word. It is merged into
// BENCH_fleet.json's units table as "copy_charged", where -compare gates
// it.
func BenchmarkCopyCharged(b *testing.B) {
	img, _, err := replay.BuildImage(replay.Spec{App: "ar", Runtime: "mementos"})
	if err != nil {
		b.Fatal(err)
	}
	m, err := tics.NewMachine(img, tics.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	src, dst := m.Img.GlobalsBase, m.Img.RuntimeBase+16
	if dst+4*copyWords > m.Img.RuntimeBase+m.Img.RuntimeLen {
		b.Fatalf("runtime area of %d bytes holds no %d-word copy", m.Img.RuntimeLen, copyWords)
	}
	m.PowerOn(1 << 60)
	b.ResetTimer()
	for range b.N {
		m.CopyCharged(dst, src, 4*copyWords, 2)
	}
	words := int64(b.N) * copyWords
	ns := float64(b.Elapsed().Nanoseconds()) / float64(words)
	b.ReportMetric(ns, "ns/word")
	err = bench.Update("BENCH_fleet.json", func(f *bench.File) error {
		f.SetUnit("copy_charged", &bench.UnitEntry{
			Unit: "word", Shape: fmt.Sprintf("%d words, 2 passes", copyWords), NsPerUnit: ns, Units: words,
		})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCOWFault prices a first write to a shared page on the host:
// a fresh copy-on-write fork of a base takes one word write on each of
// its pages, each of which materializes a private copy of the page. It
// is reported as ns per faulting write, the fork's own cost spread over
// its pages, and merged into BENCH_fleet.json's units table as
// "cow_fault", where -compare gates it.
func BenchmarkCOWFault(b *testing.B) {
	base := mem.New().Freeze()
	b.ResetTimer()
	for range b.N {
		m := mem.Fork(base)
		for pg := uint32(0); pg < mem.NumPages; pg++ {
			m.WriteWord(pg*mem.PageSize, pg)
		}
	}
	faults := int64(b.N) * mem.NumPages
	ns := float64(b.Elapsed().Nanoseconds()) / float64(faults)
	b.ReportMetric(ns, "ns/fault")
	err := bench.Update("BENCH_fleet.json", func(f *bench.File) error {
		f.SetUnit("cow_fault", &bench.UnitEntry{
			Unit: "page", Shape: fmt.Sprintf("a fresh fork, one word on each of its %d pages", mem.NumPages), NsPerUnit: ns, Units: faults,
		})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLoggedStore(b *testing.B) {
	b.Run("working-stack-hit", func(b *testing.B) {
		m, rt := microRig(b, 128)
		addr := m.Regs.SP - 8
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.LoggedStore(m, addr, 4, uint32(i))
		}
	})
	b.Run("undo-logged", func(b *testing.B) {
		m, rt := microRig(b, 128)
		addr, _ := m.Img.GlobalAddr("g")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.LoggedStore(m, addr, 4, uint32(i))
			if i%100 == 99 { // keep the log from forcing checkpoints mid-measurement
				rt.Checkpoint(m, vm.CpManual)
			}
		}
	})
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Host-side speed: simulated instructions per wall second over the
	// bitcount benchmark.
	img, err := tics.Build(apps.BC().Source, tics.BuildOptions{Runtime: tics.RTPlain})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := tics.NewMachine(img, tics.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationSegmentSize sweeps the working-stack segment size on
// BC under intermittent power: small segments trade frequent cheap
// checkpoints against large segments' rare expensive ones.
func BenchmarkAblationSegmentSize(b *testing.B) {
	prog, err := tics.Compile(apps.BC().Source)
	if err != nil {
		b.Fatal(err)
	}
	min := prog.MinSegmentBytes()
	for _, seg := range []int{min, 128, 256, 512} {
		b.Run(fmt.Sprintf("segment-%dB", seg), func(b *testing.B) {
			img, err := tics.Build(apps.BC().Source, tics.BuildOptions{
				Runtime: tics.RTTICS, SegmentBytes: seg, StackBytes: 2048,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles, cps int64
			for i := 0; i < b.N; i++ {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          &power.FailEvery{Cycles: 30_000, OffMs: 10},
					AutoCpPeriodMs: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					b.Fatalf("%v %+v", err, res)
				}
				cycles, cps = res.Cycles, res.TotalCheckpoints
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(cps), "checkpoints")
		})
	}
}

// BenchmarkAblationCheckpointPolicy compares checkpoint placement
// policies: stack-change-driven only, timer only (large segments), both,
// and the ST task-boundary placement.
func BenchmarkAblationCheckpointPolicy(b *testing.B) {
	cases := []struct {
		name    string
		kind    tics.RuntimeKind
		segment int
		timerMs float64
	}{
		{"stack-change-only", tics.RTTICS, 0, 0},
		{"timer-only", tics.RTTICS, 512, 10},
		{"stack-change+timer", tics.RTTICS, 0, 10},
		{"task-boundary", tics.RTTICSTask, 512, 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			img, err := tics.Build(apps.CF().Source, tics.BuildOptions{
				Runtime: c.kind, SegmentBytes: c.segment, StackBytes: 2048,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			completed := true
			for i := 0; i < b.N; i++ {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          &power.FailEvery{Cycles: 25_000, OffMs: 10},
					AutoCpPeriodMs: c.timerMs,
					MaxCycles:      200_000_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles, completed = res.Cycles, res.Completed
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			if !completed {
				b.ReportMetric(1, "starved")
			}
		})
	}
}

// BenchmarkAblationUndoGranularity compares word-granularity undo logging
// (the paper's design) against block-granularity logging with per-epoch
// dedup: hot globals (BC's counters, CF's buckets) pay the logging cost
// once per checkpoint epoch instead of on every store.
func BenchmarkAblationUndoGranularity(b *testing.B) {
	for _, block := range []int{4, 16, 32} {
		b.Run(fmt.Sprintf("block-%dB", block), func(b *testing.B) {
			img, err := tics.Build(apps.CF().Source, tics.BuildOptions{
				Runtime: tics.RTTICS, SegmentBytes: 512, StackBytes: 2048, UndoBlockBytes: block,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				m, err := tics.NewMachine(img, tics.RunOptions{AutoCpPeriodMs: 10})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					b.Fatalf("%v %+v", err, res)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationDifferentialCheckpoint contrasts TICS's fixed
// whole-segment checkpoints with differential (used-tail-only) ones: the
// differential form is cheaper on shallow stacks but loses the fixed
// worst-case bound that motivates stack segmentation.
func BenchmarkAblationDifferentialCheckpoint(b *testing.B) {
	for _, diff := range []bool{false, true} {
		name := "fixed"
		if diff {
			name = "differential"
		}
		b.Run(name, func(b *testing.B) {
			img, err := tics.Build(apps.BC().Source, tics.BuildOptions{
				Runtime: tics.RTTICS, SegmentBytes: 512, StackBytes: 2048,
				DifferentialCheckpoints: diff,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles, cps int64
			for i := 0; i < b.N; i++ {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          &power.FailEvery{Cycles: 30_000, OffMs: 10},
					AutoCpPeriodMs: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					b.Fatalf("%v %+v", err, res)
				}
				cycles, cps = res.Cycles, res.TotalCheckpoints
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(cps), "checkpoints")
		})
	}
}

// BenchmarkAblationTimekeeper measures how the persistent clock's off-time
// error model changes the AR application's freshness decisions: a sloppy
// remanence timer misjudges outage lengths, so stale windows slip through
// as fresh (or fresh ones are discarded).
func BenchmarkAblationTimekeeper(b *testing.B) {
	clocks := []struct {
		name string
		mk   func() timekeeper.Keeper
	}{
		{"perfect", func() timekeeper.Keeper { return &timekeeper.Perfect{} }},
		{"rtc-10ms", func() timekeeper.Keeper { return &timekeeper.RTC{ResolutionMs: 10} }},
		{"remanence-10pct", func() timekeeper.Keeper { return timekeeper.NewRemanence(0.1, 5000, 3) }},
		{"remanence-50pct", func() timekeeper.Keeper { return timekeeper.NewRemanence(0.5, 5000, 3) }},
	}
	img, err := tics.Build(apps.AR().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range clocks {
		b.Run(c.name, func(b *testing.B) {
			var fresh, stale int64
			for i := 0; i < b.N; i++ {
				m, err := tics.NewMachine(img, tics.RunOptions{
					Power:          power.NewHarvester(40_000, 450, 0.8, 8),
					Clock:          c.mk(),
					Sensors:        sensors.NewBank(8),
					AutoCpPeriodMs: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil || !res.Completed {
					b.Fatalf("%v %+v", err, res)
				}
				fresh, stale = res.MarkCounts[3], res.MarkCounts[4]
			}
			b.ReportMetric(float64(fresh), "fresh-windows")
			b.ReportMetric(float64(stale), "stale-windows")
		})
	}
}

// BenchmarkTraceOverhead measures what the flight recorder costs the
// simulator on a representative intermittent AR run. "disabled" is the
// production default (no recorder: every emission site is one nil check)
// and must track "baseline" (the same machine; the recorder plumbing
// cannot be compiled out) within noise — the budget is <2%. "enabled"
// and "profiled" price full event capture and cycle attribution.
func BenchmarkTraceOverhead(b *testing.B) {
	img, err := tics.Build(apps.AR().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mk func() *obs.Recorder) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			m, err := tics.NewMachine(img, tics.RunOptions{
				Power:    &power.DutyCycle{Rate: 0.48, OnMs: 40},
				Sensors:  sensors.NewBank(1),
				Recorder: mk(),
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run()
			if err != nil || !res.Completed {
				b.Fatalf("%v %+v", err, res)
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, func() *obs.Recorder { return nil }) })
	b.Run("disabled", func(b *testing.B) { run(b, func() *obs.Recorder { return nil }) })
	b.Run("enabled", func(b *testing.B) {
		run(b, func() *obs.Recorder { return obs.NewRecorder(obs.Options{}) })
	})
	b.Run("profiled", func(b *testing.B) {
		run(b, func() *obs.Recorder { return obs.NewRecorder(obs.Options{Profile: true}) })
	})
}

// ---- Reset-point model checker (internal/mc) ----

// BenchmarkResetPointSweep measures the exhaustive checker's throughput:
// interrupted schedules verified per wall second and simulated machine
// states (cycles) explored per second, at depth 1 (every single reboot
// point) and depth 2 (every reboot pair, stride-capped). The program is
// bc: its oracle runs long enough to take snapshots, so the rows measure
// schedules resumed from them (a program whose oracle is under the
// snapshot floor, such as swap, re-runs every prefix from cold boot).
// The numbers are merged into BENCH_fleet.json's mc table so `-compare`
// can gate checker regressions like any other ledger row.
func BenchmarkResetPointSweep(b *testing.B) {
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var rep *mc.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = mc.Sweep(mc.Config{
					Spec:         replay.Spec{App: "bc", Runtime: "tics", TimerMs: 2, Virtualize: true},
					Depth:        depth,
					Workers:      goruntime.GOMAXPROCS(0),
					MaxSchedules: 400,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatalf("bc sweep found a counterexample: %s", rep.Counterexample())
				}
			}
			sec := b.Elapsed().Seconds()
			schedPerSec := float64(rep.Schedules) * float64(b.N) / sec
			statesPerSec := float64(rep.CyclesExplored) * float64(b.N) / sec
			b.ReportMetric(schedPerSec, "schedules/s")
			b.ReportMetric(statesPerSec, "states/s")
			entry := &bench.MCEntry{
				Program:         "bc",
				Depth:           depth,
				Schedules:       rep.Schedules,
				CyclesExplored:  rep.CyclesExplored,
				SchedulesPerSec: schedPerSec,
				StatesPerSec:    statesPerSec,
			}
			err := bench.Update("BENCH_fleet.json", func(f *bench.File) error {
				f.SetMC(bench.MCKey(depth), entry)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
