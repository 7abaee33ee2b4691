package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	tics "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// mixConfigs is the device-mix cycle: five (app, runtime) pairs whose
// programs never send, so nearly all of a round is device execution. They
// differ in recursion, pointer stores and time annotations, and cover
// three runtimes.
func mixConfigs(n int, seed uint64) []fleet.Config {
	pairs := [][2]string{{"bc", "tics"}, {"cf", "tics"}, {"ar", "tics"}, {"ar", "mementos"}, {"cf", "chinchilla"}}
	var cfgs []fleet.Config
	for _, p := range pairs {
		cfgs = append(cfgs, fleet.Config{
			Devices: n, Workers: workers, App: p[0], Runtime: p[1],
			Power: "harvest:40000,800", Seed: seed, WallMs: 100,
			Link: fleet.LinkParams{Loss: 0.05, DelayMinMs: 2, DelayMaxMs: 20},
		})
	}
	return cfgs
}

// burstLink is the Gilbert–Elliott channel of fleet-ghm-traced, also used
// to make the gate-ingest frames.
var burstLink = fleet.LinkParams{
	GE: true, GELossGood: 0.01, GELossBad: 0.5, GEGoodToBad: 0.05, GEBadToGood: 0.2,
	Retransmits: 2, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20,
}

// ghmConfigs is the deployment the dashboard serves: ghm over a bursty
// link with every telemetry option on.
func ghmConfigs(n int, seed uint64) []fleet.Config {
	return []fleet.Config{{
		Devices: n, Workers: workers, App: "ghm", Runtime: "tics",
		Power: "harvest:40000,800", Seed: seed, WallMs: 100,
		Link: burstLink, FreshnessMs: 15,
		Collect: true, Trace: true, Profile: true,
	}}
}

func pairName(c fleet.Config) string { return c.App + "/" + c.Runtime }

// roundTotals are the simulated totals of one fleet round: a pure
// function of the config, so every round of one config must repeat them.
type roundTotals struct {
	digest                                                string
	cycles, sends, delivered, checkpoints, restores       int64
	failures, loggedStores, memWrites                     int64
	completed, starved, timedOut, faulted                 int64
	uniqueSends, arrivals, expired, lost, frames, packets int64
}

func totalsOf(rep *fleet.Report) roundTotals {
	t := roundTotals{
		digest: rep.Digest, cycles: rep.TotalCycles, sends: rep.Sends, delivered: rep.Gateway.Delivered,
		completed: int64(rep.Completed), starved: int64(rep.Starved), timedOut: int64(rep.TimedOut), faulted: int64(rep.Faulted),
		uniqueSends: rep.UniqueSends, arrivals: rep.Gateway.Arrivals, expired: rep.Gateway.Expired, lost: rep.Lost,
		frames: rep.Link.Frames, packets: rep.Link.Packets,
	}
	for i := range rep.Outcomes {
		res := &rep.Outcomes[i].Res
		t.checkpoints += res.TotalCheckpoints
		t.restores += res.Restores
		t.failures += int64(res.Failures)
		t.loggedStores += res.RuntimeStats["stores-logged"]
		t.memWrites += int64(res.MemStats.Writes)
	}
	return t
}

// checkRound runs the cross-checks every round must pass, whatever the
// seed, and compares the round with the first round of its config.
func (r *run) checkRound(c fleet.Config, rep *fleet.Report, got, first roundTotals) {
	n := int64(c.Devices)
	if s := got.completed + got.starved + got.timedOut + got.faulted; s != n {
		r.fail(1, "%s: completed+starved+timed_out+faulted = %d, want %d devices", pairName(c), s, n)
	}
	if s := got.delivered + got.expired + got.lost; s != got.uniqueSends {
		r.fail(1, "%s: delivered+expired+lost = %d, want %d unique sends", pairName(c), s, got.uniqueSends)
	}
	if got.faulted > 0 {
		r.fail(got.faulted, "%s: %d devices faulted", pairName(c), got.faulted)
	}
	if got != first {
		r.fail(1, "%s: round differs from the first round of its config (digest %s, want %s)", pairName(c), got.digest, first.digest)
	}
}

// runFleet runs fleet.Run over the configs, one round each per cycle:
// one warm-up cycle, then measured cycles. A traced run re-executes each
// round's first devices in a probe.
func runFleet(r *run, cfgs []fleet.Config) error {
	imgs := make([]*tics.Image, len(cfgs))
	err := r.setup(func() error {
		for i, c := range cfgs {
			start := time.Now()
			img, _, err := replay.BuildImage(c.DeviceSpec(0))
			if err != nil {
				return err
			}
			r.layer.add("build.image_ms", ms(time.Since(start)))
			imgs[i] = img
		}
		return nil
	})
	if err != nil {
		return err
	}

	first := make([]roundTotals, len(cfgs))
	round := 0
	cycle := func(warm bool) ([]time.Duration, []roundTotals, error) {
		walls := make([]time.Duration, len(cfgs))
		totals := make([]roundTotals, len(cfgs))
		for i, cfg := range cfgs {
			trace := fmt.Sprintf("%s/%d", r.opts.workload, round)
			round++
			rootID := r.tr.begin("round", trace, 0)
			start := time.Now()
			rep, err := fleet.Run(cfg)
			walls[i] = time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", pairName(cfg), err)
			}
			runID := r.tr.add("fleet.Run", trace, rootID, start, start.Add(walls[i]))
			at := start
			for _, p := range rep.Phases {
				d := time.Duration(p.Seconds * 1e9)
				r.tr.add("phase."+p.Phase, trace, runID, at, at.Add(d))
				at = at.Add(d)
			}
			r.attempted += int64(cfg.Devices)
			totals[i] = totalsOf(rep)
			if warm {
				first[i] = totals[i]
			}
			r.checkRound(cfg, rep, totals[i], first[i])
			if !warm {
				r.roundLayers(cfg, rep, totals[i])
				if r.tr != nil {
					if err := r.probe(cfg, imgs[i], rep, trace, rootID); err != nil {
						return nil, nil, err
					}
				}
			}
			r.tr.end(rootID)
		}
		return walls, totals, nil
	}

	_, warmTotals, err := cycle(true)
	if err != nil {
		return err
	}
	r.fleetWitness(cfgs, warmTotals)

	roundMs := make([][]float64, len(cfgs)) // per config, measured rounds
	err = r.measure(func() error {
		walls, _, err := cycle(false)
		if err != nil {
			return err
		}
		for i, w := range walls {
			roundMs[i] = append(roundMs[i], ms(w))
		}
		return nil
	})
	if err != nil {
		return err
	}
	devices := 0
	for _, c := range cfgs {
		devices += c.Devices
	}
	best := fastest(roundMs...)
	r.e2e.add("work_per_s", float64(devices)/best*1e3)
	r.e2e.add("op_ms", best)
	r.e2e.add("peak_rss_mb", float64(obs.SampleResources().PeakRSSBytes)/1e6)
	return nil
}

// fleetWitness records the warm-up cycle: a SHA-256 over the ordered
// per-round digests and totals (device-mix rounds deliver nothing, so
// their digests alone are all the empty log's), plus the summed totals.
func (r *run) fleetWitness(cfgs []fleet.Config, totals []roundTotals) {
	h := sha256.New()
	var sum roundTotals
	for i, t := range totals {
		fmt.Fprintf(h, "%s %s %d %d %d %d %d\n", pairName(cfgs[i]), t.digest, t.cycles, t.sends, t.delivered, t.checkpoints, t.restores)
		sum.cycles += t.cycles
		sum.sends += t.sends
		sum.delivered += t.delivered
		sum.checkpoints += t.checkpoints
		sum.restores += t.restores
	}
	r.witness["digests_sha256"] = hex.EncodeToString(h.Sum(nil))
	r.witness["cycles"] = fmt.Sprint(sum.cycles)
	r.witness["sends"] = fmt.Sprint(sum.sends)
	r.witness["delivered"] = fmt.Sprint(sum.delivered)
	r.witness["checkpoints"] = fmt.Sprint(sum.checkpoints)
	r.witness["restores"] = fmt.Sprint(sum.restores)
}

// roundLayers records the per-layer numbers fleet.Run itself reports.
func (r *run) roundLayers(c fleet.Config, rep *fleet.Report, t roundTotals) {
	n := float64(c.Devices)
	for _, p := range rep.Phases {
		r.layer.add("fleet.phase_s."+p.Phase, p.Seconds)
	}
	r.layer.add("vm.kcycles_per_device", float64(t.cycles)/1e3/n)
	r.layer.add("vm.power_failures_per_device", float64(t.failures)/n)
	r.layer.add("core.checkpoints_per_device", float64(t.checkpoints)/n)
	r.layer.add("core.restores_per_device", float64(t.restores)/n)
	r.layer.add("core.logged_stores_per_device", float64(t.loggedStores)/n)
	r.layer.add("mem.writes_per_device", float64(t.memWrites)/n)
	r.layer.add("fleet.completed_frac", float64(t.completed)/n)
	r.layer.add("fleet.starved_frac", float64(t.starved)/n)
	r.layer.add("fleet.timed_out_frac", float64(t.timedOut)/n)
	r.layer.add("fleet.faulted_frac", float64(t.faulted)/n)
	r.layer.add("fleet.arrivals_per_device", float64(t.arrivals)/n)
	r.layer.add("fleet.frames_per_send", ratio(float64(t.frames), float64(t.packets)))
	r.layer.add("fleet.lost_frac", ratio(float64(t.lost), float64(t.uniqueSends)))
	r.layer.add("gateway.useful_frac", ratio(float64(t.delivered), float64(t.arrivals)))
	r.layer.add("gateway.expired_frac", ratio(float64(t.expired), float64(t.uniqueSends)))
}

// probePass is one pass of the probe over the round's first devices.
type probePass struct {
	wall, busy time.Duration
	logs       [][]vm.SendRec
}

// probe re-executes the round's first devices outside fleet.Run, timing
// each layer of a device run, then pushes their send logs through the
// channel and a fresh gateway. Devices get the same DeviceSeed-derived
// power, clock and sensors as in fleet.Run, and their cycles and sends
// must equal the round's outcomes.
func (r *run) probe(c fleet.Config, img *tics.Image, rep *fleet.Report, trace string, parent int64) error {
	k := min(r.prof.probeDevices, c.Devices)
	id := r.tr.begin("probe", trace, parent)
	defer r.tr.end(id)

	bare, err := r.probePass(c, img, rep, k, false, trace, id)
	if err != nil {
		return err
	}
	rec, err := r.probePass(c, img, rep, k, true, trace, id)
	if err != nil {
		return err
	}
	r.layer.add("obs.recorder_us", us(rec.busy-bare.busy)/float64(k))
	r.layer.add("pool.idle_frac", 1-bare.busy.Seconds()/(workers*bare.wall.Seconds()))
	// The fleet's device phase runs with recorders exactly when the
	// config collects metrics or profiles.
	pass := bare
	if c.Collect || c.Profile {
		pass = rec
	}
	predicted := pass.wall.Seconds() / float64(k) * float64(c.Devices)
	r.layer.add("trace.reconcile_devices", ratio(predicted, fleet.PhaseSeconds(rep.Phases, fleet.PhaseDevices)))

	start := time.Now()
	var arrivals []fleet.Arrival
	var frames int64
	for i := 0; i < k; i++ {
		arr, st := fleet.Transmit(i, fleet.DeviceSeed(c.Seed, i), c.Link, bare.logs[i])
		arrivals = append(arrivals, arr...)
		frames += st.Frames
	}
	mid := time.Now()
	r.tr.add("probe.channel", trace, id, start, mid)
	r.layer.add("channel.ns_per_frame", ratio(float64(mid.Sub(start).Nanoseconds()), float64(frames)))

	start = time.Now()
	fleet.SortArrivals(arrivals)
	mid = time.Now()
	gw := fleet.NewGateway(c.FreshnessMs)
	for _, a := range arrivals {
		gw.Accept(a)
	}
	accepted := time.Now()
	gw.Digest()
	end := time.Now()
	r.tr.add("probe.gateway.sort", trace, id, start, mid)
	r.tr.add("probe.gateway.accept", trace, id, mid, accepted)
	r.tr.add("probe.gateway.digest", trace, id, accepted, end)
	n := float64(len(arrivals))
	r.layer.add("gateway.sort_ns_per_arrival", ratio(float64(mid.Sub(start).Nanoseconds()), n))
	r.layer.add("gateway.accept_ns_per_arrival", ratio(float64(accepted.Sub(mid).Nanoseconds()), n))
	r.layer.add("gateway.digest_ms", ms(end.Sub(accepted)))
	return nil
}

// probePass runs devices 0..k-1 on a pool of workers pooled machines, as
// fleet.Run does. The recorder pass attaches the recorder fleet.Run
// attaches under Collect and Profile.
func (r *run) probePass(c fleet.Config, img *tics.Image, rep *fleet.Report, k int, withRecorder bool,
	trace string, parent int64) (probePass, error) {
	name := "probe.bare"
	if withRecorder {
		name = "probe.recorder"
	}
	id := r.tr.begin(name, trace, parent)
	defer r.tr.end(id)

	pool := make(chan *vm.Machine, workers)
	for i := 0; i < workers; i++ {
		pool <- nil
	}
	setupNs := make([]float64, k)
	resetNs := make([]float64, k)
	runNs := make([]float64, k)
	cycles := make([]int64, k)
	logs := make([][]vm.SendRec, k)
	errs := make([]error, k)
	// The recorder pass keeps every device's metrics and profile until it
	// ends, as fleet.Run keeps them for its report.
	regs := make([]*obs.Registry, k)
	profs := make([]obs.Profile, k)
	var busy atomic.Int64
	start := time.Now()
	fleet.ParallelFor(k, workers, func(i int) {
		m := <-pool
		defer func() { pool <- m }()
		t0 := time.Now()
		seed := fleet.DeviceSeed(c.Seed, i)
		spec := c.DeviceSpec(i)
		src, err := replay.ParsePower(spec.Power, seed)
		if err != nil {
			errs[i] = err
			return
		}
		clock, err := replay.ParseClock(spec.Clock, seed)
		if err != nil {
			errs[i] = err
			return
		}
		var rec *obs.Recorder
		if withRecorder {
			rec = obs.NewRecorder(obs.Options{RingCap: 64, Profile: c.Profile})
		}
		opts := tics.RunOptions{
			Power: src, Clock: clock, Sensors: sensors.NewBank(seed),
			AutoCpPeriodMs: spec.TimerMs, MaxWallMs: spec.WallMs, MaxCycles: spec.MaxCycles,
			VirtualizeSends: spec.Virtualize, Recorder: rec,
		}
		t1 := time.Now()
		if m == nil {
			m, err = tics.NewMachine(img, opts)
		} else {
			err = tics.ResetMachine(m, img, opts)
		}
		if err != nil {
			errs[i] = err
			return
		}
		t2 := time.Now()
		res, _ := m.Run()
		if rec != nil {
			regs[i] = rec.Metrics()
			if c.Profile {
				profs[i] = rec.Profile()
			}
		}
		t3 := time.Now()
		setupNs[i], resetNs[i], runNs[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))
		cycles[i], logs[i] = res.Cycles, res.SendLog
		busy.Add(int64(t3.Sub(t0)))
		if !withRecorder {
			r.tr.add("device.setup", trace, id, t0, t1)
			r.tr.add("mem.reset", trace, id, t1, t2)
			r.tr.add("vm.run", trace, id, t2, t3)
		}
	})
	p := probePass{wall: time.Since(start), busy: time.Duration(busy.Load()), logs: logs}
	runtime.KeepAlive(regs)
	runtime.KeepAlive(profs)
	for _, err := range errs {
		if err != nil {
			return p, fmt.Errorf("probe of %s: %w", pairName(c), err)
		}
	}
	r.attempted += int64(k)
	var mismatched []string
	var runSum, cycleSum float64
	for i := 0; i < k; i++ {
		out := rep.Outcomes[i]
		if cycles[i] != out.Res.Cycles || len(logs[i]) != out.Sends {
			mismatched = append(mismatched, fmt.Sprint(i))
		}
		runSum += runNs[i]
		cycleSum += float64(cycles[i])
	}
	if len(mismatched) > 0 {
		r.fail(int64(len(mismatched)), "%s: probe devices %s differ from the round's outcomes", pairName(c), strings.Join(mismatched, ","))
	}
	if !withRecorder {
		for i := 0; i < k; i++ {
			r.layer.add("device.setup_us", setupNs[i]/1e3)
			r.layer.add("mem.reset_us", resetNs[i]/1e3)
			r.layer.add("vm.run_us", runNs[i]/1e3)
		}
		r.layer.add("vm.host_ns_per_kcycle", ratio(runSum, cycleSum/1e3))
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
