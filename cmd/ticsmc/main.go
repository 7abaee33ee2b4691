// Command ticsmc is the exhaustive reset-point model checker: it runs a
// TICS-C program once uninterrupted, enumerates every instrumentation-
// boundary reboot point (pairs of points at -depth 2), re-executes each
// interrupted schedule with the trace auditor (which also keeps the
// data-freshness record) attached, and reports every schedule that
// breaks an intermittence invariant — minimized to the earliest failing
// reboot point and exportable as a replayable manifest.
//
//	ticsmc program.c                      # depth-1 sweep of a source file
//	ticsmc -app bc                        # sweep a built-in benchmark
//	ticsmc -depth 2 -off 100 program.c    # reboot pairs, 100 ms outages
//	ticsmc -out ce.json program.c         # write the counterexample manifest
//	ticsmc -crosscheck testdata/vet/seeded  # correlate with ticsvet
//	ticsmc -cpuprofile cpu.out -app bc    # host CPU profile for go tool pprof
//
// In -crosscheck mode ticsmc walks the seeded diagnostic corpus: every
// program ticsvet flags must yield a concrete failing schedule whose
// manifest re-verifies under internal/replay, and the static diagnostics
// are printed through the same formatter ticsvet uses, next to the
// dynamic counterexample that grounds them.
//
// Exit status: 0 when every schedule verified (or every cross-check
// correlated), 1 when a counterexample was found (or a correlation
// failed), 2 on usage or compile errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/mc"
	"repro/internal/replay"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command with its exit status returned rather than taken, so
// deferred work (stopping the CPU profile) runs on every path.
func run(args []string) int {
	fs := flag.NewFlagSet("ticsmc", flag.ExitOnError)
	var (
		depth      = fs.Int("depth", 1, "max reboots per schedule (2 = every pair of reset points)")
		offMs      = fs.Float64("off", 20, "off-time per injected reboot, ms")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "sweep pool size (results are independent of it)")
		maxScheds  = fs.Int("max-schedules", 0, "bound schedules per depth level, 0 = exhaustive")
		jsonOut    = fs.Bool("json", false, "emit the full report as JSON")
		appName    = fs.String("app", "", "check a built-in benchmark instead of a file")
		runtimeK   = fs.String("runtime", "tics", "runtime kind (plain|tics|tics-st|mementos|chinchilla|alpaca|ink|mayfly)")
		timerMs    = fs.Float64("timer", 2, "automatic checkpoint period, ms (0 = explicit checkpoints only)")
		seed       = fs.Uint64("seed", 0, "sensor bank seed")
		wallMs     = fs.Float64("wall", 0, "wall-clock budget per run, ms (0 = cycle watchdog only; required for non-terminating programs)")
		assumeMs   = fs.Int64("assume-budget", 0, "freshness budget imposed on sends of unannotated globals, ms (0 = off)")
		effectLoss = fs.Bool("effect-loss", false, "flag schedules that complete but commit fewer sends/outs than the oracle")
		outPath    = fs.String("out", "", "write the minimized counterexample manifest to this file")
		crosscheck = fs.String("crosscheck", "", "correlate checker verdicts with ticsvet findings over the seeded corpus in DIR")
		verbose    = fs.Bool("v", false, "log one progress line per depth to stderr (candidates, kept, elapsed, rates)")
		cpuProfile = fs.String("cpuprofile", "", "write a host CPU profile of the whole command to FILE (go tool pprof)")
	)
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	if *crosscheck != "" {
		return runCrossCheck(*crosscheck, *workers, *jsonOut)
	}

	spec := replay.Spec{
		Runtime:    *runtimeK,
		TimerMs:    *timerMs,
		Seed:       *seed,
		WallMs:     *wallMs,
		Virtualize: true,
	}
	var label string
	switch {
	case *appName != "":
		if _, ok := apps.ByName(*appName); !ok {
			fmt.Fprintf(os.Stderr, "ticsmc: unknown app %q\n", *appName)
			return 2
		}
		spec.App = *appName
		label = *appName
	case fs.NArg() == 1:
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
		spec.Source = string(b)
		label = fs.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: ticsmc [flags] program.c (or -app NAME, or -crosscheck DIR)")
		return 2
	}

	cfg := mc.Config{
		Spec:            spec,
		Depth:           *depth,
		OffMs:           *offMs,
		Workers:         *workers,
		MaxSchedules:    *maxScheds,
		AssumeBudgetMs:  *assumeMs,
		CheckEffectLoss: *effectLoss,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ticsmc: "+format+"\n", args...)
		}
	}

	rep, err := mc.Sweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, analysis.FormatError(label, err))
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
	} else {
		fmt.Printf("%s: %d boundaries, %d schedules (depth %d, off %.0f ms), %d cycles explored\n",
			label, rep.Boundaries, rep.Schedules, rep.Depth, rep.OffMs, rep.CyclesExplored)
		if rep.Dropped > 0 {
			fmt.Printf("%s: %d schedules dropped by -max-schedules (coverage is NOT exhaustive)\n", label, rep.Dropped)
		}
		for _, f := range rep.OracleFindings {
			fmt.Printf("%s: %s\n", label, f)
		}
		for _, f := range rep.Findings {
			fmt.Printf("%s: %s\n", label, f)
		}
	}

	if rep.Clean() {
		if !*jsonOut {
			fmt.Printf("%s: verified: every schedule preserved the intermittence invariants\n", label)
		}
		return 0
	}

	if *outPath != "" {
		f := rep.Counterexample()
		man, _, err := mc.Counterexample(spec, *f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: recording counterexample: %v\n", err)
			return 2
		}
		if err := replay.WriteManifest(*outPath, man); err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
		if !*jsonOut {
			fmt.Printf("%s: counterexample manifest written to %s (replay with ticsrun -replay %s)\n", label, *outPath, *outPath)
		}
	}
	return 1
}

// runCrossCheck correlates the checker with ticsvet over the seeded
// corpus and prints each program's static diagnostics (via the shared
// analysis formatter) next to its dynamic counterexample.
func runCrossCheck(dir string, workers int, jsonOut bool) int {
	results, err := mc.CrossCheck(dir, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "ticsmc: %v\n", err)
			return 2
		}
	}
	status := 0
	for _, r := range results {
		if !jsonOut {
			printCrossResult(dir, r)
		}
		if !r.Ok() {
			status = 1
		}
	}
	if !jsonOut {
		if status == 0 {
			fmt.Printf("crosscheck: %d/%d diagnostics grounded by replayable counterexamples\n", len(results), len(results))
		} else {
			fmt.Println("crosscheck: FAILED")
		}
	}
	return status
}

func printCrossResult(dir string, r mc.CrossResult) {
	verdict := "ok"
	if !r.Ok() {
		verdict = "FAIL"
	}
	fmt.Printf("%-4s %s (%s): %d boundaries, %d schedules\n", verdict, r.File, r.Code, r.Boundaries, r.Schedules)
	// Reprint the static findings through the one shared formatter, so
	// the lint and its machine-checked ground truth sit side by side.
	if src, err := os.ReadFile(dir + "/" + r.File); err == nil {
		var sc mc.Scenario
		for _, s := range mc.Scenarios() {
			if s.File == r.File {
				sc = s
				break
			}
		}
		if diags, err := analysis.AnalyzeSource(string(src), sc.Analysis); err == nil {
			analysis.WriteText(os.Stdout, "  "+r.File, diags)
		}
	}
	if r.Finding != nil {
		fmt.Printf("  counterexample: %s (replay verified: %v)\n", r.Finding, r.ReplayOK)
	}
	if r.Err != "" {
		fmt.Printf("  error: %s\n", r.Err)
	}
}
