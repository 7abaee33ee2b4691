// Command ticsrun executes a TICS-C program (or a built-in benchmark) on
// the simulated intermittently powered device and reports what happened:
// completion, failures, checkpoints, routine counters, radio log.
//
//	ticsrun -app bc -runtime tics -power fail:9000 -timer 10
//	ticsrun -app ghm -runtime plain -power duty:0.48 -wall 30000
//	ticsrun -app ar -power duty:0.48 -trace ar.json -profile ar.folded
//	ticsrun -runtime mementos program.c
//
// The observability flags attach a flight recorder to the machine:
// -trace writes Chrome/Perfetto trace_event JSON, -events writes the raw
// event stream as JSONL, -profile writes folded stacks for flame graphs,
// and -metrics dumps the metrics registry (plus a cycle-attribution
// summary) to stdout. Without any of them the recorder is never created
// and the run pays no observability cost.
//
// The verification flags turn the recorder into a proof of the run:
//
//	ticsrun -app ar -power harvest:40000,800 -audit fail     # invariant auditor
//	ticsrun -app cf -power harvest:40000,800 -record run.json
//	ticsrun -replay run.json                                 # bit-identical re-execution
//	ticsrun -replay run.json -bisect mementos                # first divergent event
//
// -audit attaches the trace auditor (rollback exactness, undo-log
// completeness, checkpoint atomicity, time consistency); "summary" prints
// the verdict, "fail" also exits 1 on the first violation. -record writes
// a run manifest (program hash, power windows actually drawn, seeds) that
// -replay re-executes bit-identically; -bisect replays the manifest under
// a second runtime and reports where the event streams part ways.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/vm"
)

func main() {
	var (
		runtime  = flag.String("runtime", "tics", "runtime: plain|tics|tics-st|mementos|chinchilla|alpaca|ink|mayfly")
		appName  = flag.String("app", "", "run a built-in benchmark instead of a file")
		powerArg = flag.String("power", "continuous", "power source: continuous | duty:RATE | fail:CYCLES[,OFF_MS] | sched:C@OFF,... | harvest:CAP,RATE")
		timerMs  = flag.Float64("timer", 0, "timer-driven checkpoint period in ms (0 = off)")
		wallMs   = flag.Float64("wall", 0, "wall-clock budget in ms (0 = run to completion)")
		segment  = flag.Int("segment", 0, "TICS segment bytes (0 = minimum)")
		seed     = flag.Uint64("seed", 1, "sensor/power seed")
		clockArg = flag.String("clock", "perfect", "persistent timekeeper: perfect | rtc:RES_MS | remanence:ERR,MAX_MS[,SEED]")

		traceOut   = flag.String("trace", "", "write Chrome/Perfetto trace_event JSON to FILE")
		eventsOut  = flag.String("events", "", "write the raw event stream as JSONL to FILE")
		profileOut = flag.String("profile", "", "write folded stacks (flamegraph.pl input) to FILE")
		metrics    = flag.Bool("metrics", false, "dump the metrics registry and cycle attribution to stdout")
		quiet      = flag.Bool("quiet", false, "suppress everything except the send log")
		seq        = flag.Bool("seq", false, "print each transmitted packet with its send-sequence number")

		auditMode = flag.String("audit", "off", "trace auditor: off | summary | fail (exit 1 on violation)")
		recordOut = flag.String("record", "", "record the run: write a replay manifest to FILE")
		replayIn  = flag.String("replay", "", "re-execute the manifest in FILE instead of setting up a run")
		bisectRt  = flag.String("bisect", "", "with -replay: also replay under RUNTIME and report the first divergent event")
	)
	flag.Parse()

	if *auditMode != "off" && *auditMode != "summary" && *auditMode != "fail" {
		fatal(fmt.Errorf("-audit wants off, summary or fail (got %q)", *auditMode))
	}

	// The auditor hook is shared by all three execution paths.
	var auditors []*audit.Auditor
	attach := replay.AttachFunc(nil)
	if *auditMode != "off" {
		attach = func(m *vm.Machine) error {
			a, err := audit.Attach(m, audit.Options{FailFast: *auditMode == "fail"})
			if err != nil {
				return err
			}
			auditors = append(auditors, a)
			return nil
		}
	}

	if *replayIn != "" {
		runReplay(*replayIn, *bisectRt, *seq, attach, auditors2(&auditors), *auditMode)
		return
	}
	if *bisectRt != "" {
		fatal(fmt.Errorf("-bisect needs -replay FILE"))
	}

	spec := replay.Spec{
		App:     *appName,
		Runtime: *runtime,
		Segment: *segment,
		Power:   *powerArg,
		Clock:   *clockArg,
		Seed:    *seed,
		TimerMs: *timerMs,
		WallMs:  *wallMs,
	}
	if *appName == "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: ticsrun [-flags] program.c (or -app NAME, or -replay FILE)"))
		}
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		spec.Source = string(b)
	}

	if *recordOut != "" {
		man, run, err := replay.Record(spec, attach)
		if err != nil {
			fatal(err)
		}
		if err := replay.WriteManifest(*recordOut, man); err != nil {
			fatal(err)
		}
		printResult(os.Stdout, run.Result, *quiet, *seq)
		fmt.Printf("recorded:     %s (%d events, %d power windows, sha256 %.12s…)\n",
			*recordOut, man.EventCount, len(man.Windows), man.EventsSHA256)
		finishAudit(auditors, *auditMode)
		return
	}

	// The plain path keeps the zero-cost default: no recorder unless an
	// observability flag (or the auditor, which is an event sink) asks.
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		fatal(err)
	}
	var rec *obs.Recorder
	if *traceOut != "" || *eventsOut != "" || *profileOut != "" || *metrics || attach != nil {
		rec = obs.NewRecorder(obs.Options{Profile: *profileOut != "" || *metrics})
	}
	m, err := spec.Machine(img, nil, nil, rec)
	if err != nil {
		fatal(err)
	}
	if attach != nil {
		if err := attach(m); err != nil {
			fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ticsrun: fault: %v\n", err)
	}

	printResult(os.Stdout, res, *quiet, *seq)

	if rec != nil {
		if err := exportRecorder(rec, *traceOut, *eventsOut, *profileOut); err != nil {
			fatal(err)
		}
		if *metrics {
			rec.Metrics().Dump(os.Stdout)
			rec.Profile().WriteSummary(os.Stdout)
		}
	}
	finishAudit(auditors, *auditMode)
}

// auditors2 defers the slice read: the attach hook appends after runReplay
// receives the pointer.
func auditors2(as *[]*audit.Auditor) func() []*audit.Auditor {
	return func() []*audit.Auditor { return *as }
}

// runReplay handles -replay (bit-identical re-execution, verified against
// the manifest) and -replay -bisect (two replays, first divergence).
func runReplay(path, bisectRt string, seq bool, attach replay.AttachFunc, auditors func() []*audit.Auditor, auditMode string) {
	man, err := replay.ReadManifest(path)
	if err != nil {
		fatal(err)
	}
	if bisectRt != "" {
		rep, err := replay.Bisect(man, bisectRt, attach)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		finishAudit(auditors(), auditMode)
		if !rep.Identical {
			os.Exit(1)
		}
		return
	}
	run, err := replay.Replay(man, attach)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, run.Result, false, seq)
	if err := replay.VerifyReplay(man, run); err != nil {
		fmt.Fprintln(os.Stderr, "ticsrun:", err)
		os.Exit(1)
	}
	fmt.Printf("replay:       verified — %d events, sha256 %.12s… matches the recording\n",
		man.EventCount, man.EventsSHA256)
	finishAudit(auditors(), auditMode)
}

// finishAudit prints each auditor's verdict and exits 1 in fail mode when
// any run violated an invariant.
func finishAudit(auditors []*audit.Auditor, mode string) {
	if mode == "off" {
		return
	}
	bad := false
	for _, a := range auditors {
		fmt.Fprint(os.Stderr, a.Summary())
		if a.Total() > 0 {
			bad = true
		}
	}
	if bad && mode == "fail" {
		os.Exit(1)
	}
}

// printResult renders a run in deterministic order: fixed-position lines,
// channels ascending, runtime stats by sorted key. With quiet set only the
// send log is shown. With seq set each transmitted packet is printed as a
// `send seq=… value=…` line — the per-packet view that diffs directly
// against a fleet gateway's per-device delivery log (same seq ⇒ same
// logical packet; a seq printed twice is a raw-radio replay the gateway
// deduplicates).
func printResult(w io.Writer, res vm.Result, quiet, seq bool) {
	if !quiet {
		status := "completed"
		switch {
		case res.Starved:
			status = "STARVED"
		case res.TimedOut:
			status = "timed out (wall budget)"
		case res.Fault != nil:
			status = "FAULT: " + res.Fault.Error()
		case !res.Completed:
			status = "did not complete"
		}
		fmt.Fprintf(w, "status:       %s\n", status)
		fmt.Fprintf(w, "cycles:       %d (%.1f ms on, %.1f ms off, %d failures, %d restores)\n",
			res.Cycles, res.OnMs, res.OffMs, res.Failures, res.Restores)
		fmt.Fprintf(w, "checkpoints:  %d %v\n", res.TotalCheckpoints, res.Checkpoints)
		if len(res.MarkCounts) > 0 {
			fmt.Fprintf(w, "marks:        %v\n", res.MarkCounts)
		}
		for _, ch := range sortedChannels(res.OutLog) {
			fmt.Fprintf(w, "out[%d]:       %v\n", ch, res.OutLog[ch])
		}
	}
	if n := len(res.SendLog); n > 0 {
		fmt.Fprintf(w, "radio:        %d packets, first %v\n", n, res.SendLog[0].Value)
		if seq {
			for _, rec := range res.SendLog {
				fmt.Fprintf(w, "send          seq=%d value=%d t=%.3fms est=%dms commit_lat=%.3fms\n",
					rec.Seq, rec.Value, rec.TrueMs, rec.EstMs, rec.CommitLatencyMs())
			}
		}
	}
	if quiet {
		return
	}
	if len(res.RuntimeStats) > 0 {
		keys := make([]string, 0, len(res.RuntimeStats))
		for k := range res.RuntimeStats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "runtime:      ")
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s=%d", k, res.RuntimeStats[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "memory:       %d reads / %d writes (%d B / %d B)\n",
		res.MemStats.Reads, res.MemStats.Writes, res.MemStats.ReadBytes, res.MemStats.WriteBytes)
}

// exportRecorder writes whichever trace artifacts were requested.
func exportRecorder(rec *obs.Recorder, traceOut, eventsOut, profileOut string) error {
	write := func(path string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(traceOut, rec.WriteChromeTrace); err != nil {
		return err
	}
	if err := write(eventsOut, rec.WriteJSONL); err != nil {
		return err
	}
	return write(profileOut, rec.Profile().WriteFolded)
}

func sortedChannels(m map[int32][]int32) []int32 {
	var chs []int32
	for ch := range m {
		chs = append(chs, ch)
	}
	sort.Slice(chs, func(i, j int) bool { return chs[i] < chs[j] })
	return chs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ticsrun:", err)
	os.Exit(1)
}
