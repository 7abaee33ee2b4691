// Command ticsbench regenerates the paper's evaluation: every table and
// figure of §5, printed in the paper's row/series format.
//
//	ticsbench -experiment all
//	ticsbench -experiment table2
//	ticsbench -list
//
// Experiments are independent of one another, so -experiment all runs
// them concurrently on a bounded worker pool (-workers, default
// GOMAXPROCS) and prints the reports in registry order regardless of
// which finished first.
//
// Beyond the paper's artifacts, ticsbench owns the repo's performance
// ledger (BENCH_fleet.json):
//
//	ticsbench -sweep                          # fleet scaling sweep, merge into BENCH_fleet.json
//	ticsbench -sweep -sweep-n 100,1000 -sweep-out /tmp/b.json
//	ticsbench -validate BENCH_fleet.json      # schema check
//	ticsbench -compare old.json new.json      # regression gate (exit 1 on regression):
//	                                          #   devices/sec, bytes/device, peak RSS, ns/instr
//	ticsbench -compare -tolerance 0.4 -report-only old.json new.json
//
// (Flags go before the two file arguments: standard-library flag
// parsing stops at the first positional argument.)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table1..table5, fig8..fig10) or 'all'")
		workers    = flag.Int("workers", 0, "experiments to run concurrently (0 = GOMAXPROCS)")
		list       = flag.Bool("list", false, "list available experiments")

		sweep     = flag.Bool("sweep", false, "run the fleet scaling sweep and merge results into -sweep-out")
		sweepNs   = flag.String("sweep-n", "1000,10000,100000", "comma-separated fleet sizes for -sweep")
		sweepOut  = flag.String("sweep-out", "BENCH_fleet.json", "ledger file -sweep merges into")
		sweepWall = flag.Float64("sweep-wall", 100, "per-device simulated wall budget in ms for -sweep")

		compare    = flag.Bool("compare", false, "compare two ledgers: ticsbench -compare old.json new.json")
		tolerance  = flag.Float64("tolerance", 0, "relative slack for -compare (0 = default 0.25)")
		reportOnly = flag.Bool("report-only", false, "with -compare: print regressions but exit 0")

		validate = flag.String("validate", "", "validate a ledger file against the schema and exit")
	)
	flag.Parse()

	if *validate != "" {
		runValidate(*validate)
		return
	}
	if *compare {
		runCompare(flag.Args(), *tolerance, *reportOnly)
		return
	}
	if *sweep {
		runSweep(*sweepNs, *sweepOut, *sweepWall)
		return
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var ids []string
	if *experiment == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*experiment, ",")
	}
	exps := make([]experiments.Entry, len(ids))
	for i, id := range ids {
		e, ok := experiments.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "ticsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		exps[i] = e
	}

	// Run concurrently, collect by index, print in request order: output
	// is byte-identical to the old serial loop for any worker count.
	texts := make([]string, len(exps))
	errs := make([]error, len(exps))
	fleet.ParallelFor(len(exps), *workers, func(i int) {
		rep, err := exps[i].Run()
		if err != nil {
			errs[i] = err
			return
		}
		texts[i] = rep.Text
	})
	for i, e := range exps {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "ticsbench: %s: %v\n", e.ID, errs[i])
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println(strings.Repeat("=", 78))
		}
		fmt.Print(texts[i])
		fmt.Println()
	}
}

// runSweep measures the fleet at every requested size and merges the
// entries into the ledger by key, preserving whatever else is there
// (the n=64 benchmark entry, the opcode table).
func runSweep(nsSpec, out string, wallMs float64) {
	var ns []int
	for _, s := range strings.Split(nsSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "ticsbench: -sweep-n: bad size %q\n", s)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	entries, err := bench.RunSweep(bench.SweepConfig{Ns: ns, WallMs: wallMs}, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ticsbench:", err)
		os.Exit(1)
	}
	err = bench.Update(out, func(f *bench.File) error {
		for k, e := range entries {
			f.SetFleet(k, e)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ticsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep: %d sizes merged into %s\n", len(entries), out)
}

// runCompare gates new.json against old.json and exits non-zero on any
// regression past tolerance (unless -report-only).
func runCompare(paths []string, tolerance float64, reportOnly bool) {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "ticsbench: -compare wants exactly two files: old.json new.json")
		os.Exit(2)
	}
	old, err := bench.Load(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ticsbench:", err)
		os.Exit(1)
	}
	cur, err := bench.Load(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ticsbench:", err)
		os.Exit(1)
	}
	regs := bench.Compare(old, cur, tolerance, os.Stderr)
	if len(regs) == 0 {
		fmt.Printf("compare: %s vs %s: no regressions\n", paths[0], paths[1])
		return
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	if reportOnly {
		fmt.Printf("compare: %d regressions (report-only, not failing)\n", len(regs))
		return
	}
	os.Exit(1)
}

// runValidate checks a ledger against the schema, printing every
// violation.
func runValidate(path string) {
	f, err := bench.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ticsbench:", err)
		os.Exit(1)
	}
	if errs := bench.Validate(f); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "ticsbench: validate:", e)
		}
		os.Exit(1)
	}
	fmt.Printf("validate: %s ok (%d fleet entries, %d opcodes, %d mc rows, %d gate rows, %d unit rows)\n", path, len(f.Fleet), len(f.Opcodes), len(f.MC), len(f.Gate), len(f.Units))
}
