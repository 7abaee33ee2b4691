// Command ticsfleet simulates a fleet of intermittently powered devices
// reporting over a lossy RF channel to an exactly-once gateway.
//
//	ticsfleet -n 500 -app ghm -runtime tics -power harvest:40000,800 -workers 0 -json
//	ticsfleet -n 64 -app ar -virt -loss 0.1 -dup 0.05 -retrans 2 -fresh 200
//	ticsfleet -n 16 -app ghm -export-device 3 -export dev3.json
//
// Devices run in parallel on a work-stealing pool (-workers 0 sizes it
// to GOMAXPROCS); results are byte-identical for any worker count. The
// report covers throughput (device-cycles/sec of host wall time),
// delivery/duplicate/expired/lost counts and p50/p99 end-to-end latency.
// -metrics folds every device's recorder metrics into fleet totals; -prom
// writes them in Prometheus text format, plus per-device series labeled
// {shard="devN"} with -prom-shards (which re-runs each device to rebuild
// its own registry). -export-device N writes device N as a replay manifest
// for `ticsrun -replay` (single-device debugging of a fleet anomaly).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/fleet"
	"repro/internal/gate"
	"repro/internal/replay"
)

func main() {
	var (
		n       = flag.Int("n", 64, "fleet size (number of devices)")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		wave    = flag.Int("wave", 0, "devices per scheduling wave (0 = auto); send logs stream to the channel pass and machines are pooled across waves")
		appName = flag.String("app", "ghm", "built-in benchmark to run on every device")
		runtime = flag.String("runtime", "tics", "runtime: plain|tics|tics-st|mementos|chinchilla|alpaca|ink|mayfly")
		power   = flag.String("power", "harvest:40000,800", "per-device power source (replay.ParsePower syntax)")
		clock   = flag.String("clock", "perfect", "per-device persistent clock (replay.ParseClock syntax)")
		seed    = flag.Uint64("seed", 1, "fleet seed (device seeds derive from it)")
		segment = flag.Int("segment", 0, "TICS segment bytes (0 = minimum)")
		timerMs = flag.Float64("timer", 0, "timer-checkpoint period in ms (0 = off)")
		wallMs  = flag.Float64("wall", 2000, "per-device wall budget in ms (0 = run to completion)")
		virt    = flag.Bool("virt", false, "virtualize sends (exactly-once at the device)")

		loss     = flag.Float64("loss", 0.05, "per-frame loss probability")
		dup      = flag.Float64("dup", 0.02, "channel duplication probability")
		delayMin = flag.Float64("delay-min", 2, "minimum link delay in ms")
		delayMax = flag.Float64("delay-max", 20, "maximum link delay in ms")
		retrans  = flag.Int("retrans", 0, "link-layer retransmit attempts per frame")
		backoff  = flag.Float64("backoff", 5, "retransmit backoff in ms")
		fresh    = flag.Float64("fresh", 0, "gateway freshness deadline in ms (0 = off)")

		geOn    = flag.Bool("ge", false, "Gilbert-Elliott burst-loss channel instead of uniform -loss")
		geLossG = flag.Float64("ge-loss-good", 0.01, "with -ge: frame loss probability in the Good state")
		geLossB = flag.Float64("ge-loss-bad", 0.5, "with -ge: frame loss probability in the Bad state")
		geGB    = flag.Float64("ge-gb", 0.05, "with -ge: per-frame Good→Bad transition probability")
		geBG    = flag.Float64("ge-bg", 0.2, "with -ge: per-frame Bad→Good transition probability")

		gatewayURL = flag.String("gateway", "", "attach to a standalone ticsgate service at URL instead of the in-process gateway")

		jsonOut    = flag.Bool("json", false, "print the report as JSON")
		metrics    = flag.Bool("metrics", false, "dump the merged fleet metrics registry")
		promOut    = flag.String("prom", "", "write merged metrics in Prometheus text format to FILE")
		promShards = flag.Bool("prom-shards", false, "with -prom: also write per-device series labeled {shard=\"devN\"}")

		exportDev = flag.Int("export-device", -1, "export device N as a replay manifest (needs -export)")
		exportOut = flag.String("export", "", "manifest output file for -export-device")

		serveAddr = flag.String("serve", "", "serve the fleet behind HTTP on ADDR (e.g. :8080): /, /healthz, /metrics, /fleet, /trace/{dev}/{seq}, /events")
		loop      = flag.Bool("loop", false, "with -serve: re-run the fleet continuously (round r uses seed+r)")
		pprofOn   = flag.Bool("pprof", false, "with -serve: mount net/http/pprof under /debug/pprof/ (host-process profiling)")

		traceMsg = flag.String("trace", "", "print one message's span chain as JSON, given as DEV:SEQ (e.g. -trace 3:7)")
		spansOut = flag.String("spans", "", "write every message's span chain as JSONL to FILE")
		perfOut  = flag.String("perfetto", "", "write the message spans as Perfetto trace JSON to FILE")

		foldedOut  = flag.String("folded", "", "write the fleet-wide merged folded stacks (flame graph input) to FILE")
		profileSum = flag.Bool("profile", false, "print the fleet-wide merged cycle profile")
		anomalyK   = flag.Float64("anomaly-k", 0, "MAD multiplier of the anomaly outlier pass (0 = default 3.5)")
	)
	flag.Parse()

	cfg := fleet.Config{
		Devices: *n,
		Workers: *workers,
		App:     *appName,
		Runtime: *runtime,
		Segment: *segment,
		Power:   *power,
		Clock:   *clock,
		Seed:    *seed,
		TimerMs: *timerMs,
		WallMs:  *wallMs,
		Link: fleet.LinkParams{
			Loss:        *loss,
			Dup:         *dup,
			DelayMinMs:  *delayMin,
			DelayMaxMs:  *delayMax,
			Retransmits: *retrans,
			BackoffMs:   *backoff,
			GE:          *geOn,
			GELossGood:  *geLossG,
			GELossBad:   *geLossB,
			GEGoodToBad: *geGB,
			GEBadToGood: *geBG,
		},
		FreshnessMs: *fresh,
		Virtualize:  *virt,
		Collect:     *metrics || *promOut != "",
		Trace:       *traceMsg != "" || *spansOut != "" || *perfOut != "",
		Profile:     *foldedOut != "" || *profileSum,
		AnomalyK:    *anomalyK,
		Wave:        *wave,
	}
	if flag.NArg() == 1 {
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cfg.App, cfg.Source = "", string(b)
	} else if flag.NArg() > 1 {
		fatal(fmt.Errorf("usage: ticsfleet [-flags] [program.c]"))
	}

	if *exportDev >= 0 {
		if *exportOut == "" {
			fatal(fmt.Errorf("-export-device needs -export FILE"))
		}
		man, run, err := fleet.ExportDevice(cfg, *exportDev)
		if err != nil {
			fatal(err)
		}
		if err := replay.WriteManifest(*exportOut, man); err != nil {
			fatal(err)
		}
		fmt.Printf("exported device %d: %s (%d events, %d power windows, %d cycles)\n",
			*exportDev, *exportOut, man.EventCount, len(man.Windows), run.Res.Cycles)
		return
	}

	if *serveAddr != "" {
		if *gatewayURL != "" {
			fatal(fmt.Errorf("-serve and -gateway are mutually exclusive"))
		}
		fatal(fleet.Serve(*serveAddr, cfg, fleet.ServeOptions{Loop: *loop, Pprof: *pprofOn}))
	}
	if *gatewayURL != "" {
		cfg.Remote = gate.NewClient(*gatewayURL, *fresh)
	}

	rep, err := fleet.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	} else {
		printReport(cfg, rep)
	}
	if *metrics && rep.Metrics != nil {
		rep.Metrics.Dump(os.Stdout)
	}
	if *promOut != "" {
		if err := writeProm(rep, *promOut, *promShards); err != nil {
			fatal(err)
		}
	}
	if *traceMsg != "" {
		if err := printTrace(rep, *traceMsg); err != nil {
			fatal(err)
		}
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, rep.Telemetry.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *perfOut != "" {
		if err := writeFile(*perfOut, rep.Telemetry.WriteChromeTrace); err != nil {
			fatal(err)
		}
	}
	if *profileSum && rep.Profile != nil {
		rep.Profile.WriteSummary(os.Stdout)
	}
	if *foldedOut != "" && rep.Profile != nil {
		if err := writeFile(*foldedOut, rep.Profile.WriteFolded); err != nil {
			fatal(err)
		}
	}
}

// printTrace resolves a DEV:SEQ query against the run's telemetry and
// prints the message's full span chain.
func printTrace(rep *fleet.Report, query string) error {
	devStr, seqStr, ok := strings.Cut(query, ":")
	if !ok {
		return fmt.Errorf("-trace wants DEV:SEQ, got %q", query)
	}
	dev, err := strconv.Atoi(devStr)
	if err != nil {
		return fmt.Errorf("-trace device: %w", err)
	}
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	if err != nil {
		return fmt.Errorf("-trace seq: %w", err)
	}
	tr := rep.Telemetry.Trace(dev, seq)
	if tr == nil {
		return fmt.Errorf("no trace for device %d seq %d", dev, seq)
	}
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(cfg fleet.Config, rep *fleet.Report) {
	prog := cfg.App
	if prog == "" {
		prog = "<source>"
	}
	fmt.Printf("fleet:        %d devices × %s/%s, power %s, seed %d\n",
		rep.Devices, prog, cfg.Runtime, cfg.Power, rep.Seed)
	fmt.Printf("workers:      %d\n", rep.Workers)
	fmt.Printf("throughput:   %.3gM device-cycles/sec (%.0f ms wall, %d simulated cycles)\n",
		rep.Throughput/1e6, rep.Elapsed*1000, rep.TotalCycles)
	fmt.Printf("devices:      %d completed, %d timed out, %d starved, %d faulted\n",
		rep.Completed, rep.TimedOut, rep.Starved, rep.Faulted)
	fmt.Printf("radio:        %d sends (%d unique), %d frames, %d frames lost, %d acks lost, %d echoes\n",
		rep.Sends, rep.UniqueSends, rep.Link.Frames, rep.Link.FramesLost, rep.Link.AcksLost, rep.Link.Echoes)
	fmt.Printf("gateway:      %d delivered, %d duplicates dropped, %d expired, %d lost\n",
		rep.Gateway.Delivered, rep.Gateway.Duplicates, rep.Gateway.Expired, rep.Lost)
	fmt.Printf("latency:      p50 %.1f ms, p99 %.1f ms end-to-end\n", rep.LatencyP50, rep.LatencyP99)
	fmt.Printf("phases:      ")
	for _, p := range rep.Phases {
		fmt.Printf(" %s %.1fms", p.Phase, p.Seconds*1000)
	}
	fmt.Printf(" (wall %.1fms)\n", rep.WallSeconds*1000)
	fmt.Printf("digest:       %.16s…\n", rep.Digest)
	if len(rep.Anomalies) > 0 {
		fmt.Printf("anomalies:    %d flagged\n", len(rep.Anomalies))
		for _, a := range rep.Anomalies {
			fmt.Printf("  dev%-5d %-18s %s\n", a.Dev, a.Kind, a.Detail)
		}
	}
}

// writeProm renders the round's telemetry — and optionally every
// device's own registry under a {shard="devN"} label — in Prometheus
// text format.
func writeProm(rep *fleet.Report, path string, shards bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WritePrometheus(f); err != nil {
		return err
	}
	if shards {
		for dev := 0; dev < rep.Devices; dev++ {
			reg := rep.DeviceRegistry(dev)
			if reg == nil {
				continue
			}
			if err := reg.WritePrometheusLabeled(f, map[string]string{"shard": fmt.Sprintf("dev%d", dev)}); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ticsfleet:", err)
	os.Exit(1)
}
