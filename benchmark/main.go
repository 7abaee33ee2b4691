// Command benchmark is the repository benchmark. Its four workloads
// separate the layers a performance change can move: device execution
// (device-mix), the fleet post-pass and telemetry (fleet-ghm-traced),
// reset-point model checking (mc-sweep) and durable HTTP ingest into
// ticsgate (gate-ingest).
//
// One workload, run from the repository root:
//
//	bash benchmark/run.sh --workload device-mix --seed 1 --seconds 30 --trace 0
//
// prints one line per metric and, last, a JSON object with the keys
// correct, attempted, failed and metrics. Without -workload it runs every
// workload, each in its own child process. README.md has the details.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	_ "embed"
)

// workers is the pool size and connection count of every workload: the
// benchmark host has two CPUs, and a fixed count keeps runs comparable
// across hosts.
const workers = 2

var workloads = []string{"device-mix", "fleet-ghm-traced", "mc-sweep", "gate-ingest"}

// profile sizes the workloads. The smoke profile does the least work that
// still passes through every layer; go test runs it.
type profile struct {
	name         string
	setups       int // set-up repetitions; setup_s is their median
	minOps       int // measured ops per run, at least
	mixDevices   int // devices per device-mix round
	ghmDevices   int // devices per fleet-ghm-traced round
	probeDevices int // devices the traced probe re-executes per round
	sweeps       []sweepSpec
	warmWave     int // wave batches of the gate warm-up
	warmTrickle  int // trickle batches of the gate warm-up
	waveBatches  int // wave batches of one gate-ingest session
	digestEvery  int // wave batches between GET /v1/digest reads
}

// The full profile keeps operations short (a device-mix or fleet-ghm-traced
// round takes 20–100 ms, an mc-sweep sweep 0.1–0.4 s, a gate-ingest session
// 2 s), so that a run holds many of them and each one's fastest run is
// likely to fall in a quiet moment of the shared host.
var fullProfile = profile{
	name: "full", setups: 15, minOps: 3,
	mixDevices: 500, ghmDevices: 2000, probeDevices: 1024,
	sweeps:   []sweepSpec{{"bc", 1, 600}, {"cf", 1, 600}, {"ghm", 1, 600}, {"ar", 2, 250}},
	warmWave: 20, warmTrickle: 100, waveBatches: 300, digestEvery: 50,
}

var smokeProfile = profile{
	name: "smoke", setups: 3, minOps: 1,
	mixDevices: 200, ghmDevices: 200, probeDevices: 64,
	sweeps:   []sweepSpec{{"ghm", 1, 200}},
	warmWave: 2, warmTrickle: 5, waveBatches: 20, digestEvery: 10,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	ticsgate string // ticsgate binary; built into a temp dir when empty
	out      string // directory for trace files
	jsonOut  string // full result as JSON
}

// reference.json holds, per profile, seed and workload, the witness
// values a correct run must reproduce exactly.
//
//go:embed reference.json
var referenceJSON []byte

type references map[string]map[string]map[string]map[string]string // profile → seed → workload → witness

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// run is one workload's run: its settings, samples and verdicts.
type run struct {
	opts options
	prof profile
	ref  map[string]string // stored witness for this seed, nil when none
	tr   *tracer           // nil when untraced

	prepare func() error // the workload's set-up, sampled again by measure

	attempted, failed int64
	e2e, layer        metricSet
	witness           map[string]string
}

func newRun(o options, refs references) *run {
	r := &run{
		opts:    o,
		prof:    fullProfile,
		e2e:     metricSet{defs: endToEnd},
		layer:   metricSet{defs: perLayer},
		witness: map[string]string{},
	}
	if o.smoke {
		r.prof = smokeProfile
		r.opts.seconds = 0 // fixed work: minOps operations only
	}
	r.ref = refs[r.prof.name][fmt.Sprint(o.seed)][o.workload]
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// fail records n failed operations or failed checks.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAIL: %s\n", r.opts.workload, fmt.Sprintf(format, args...))
}

// setup times prepare, the work a workload does before its first
// operation; setup_s is the median of at least prof.setups such samples,
// and the workload uses what the last call prepared. measure takes all but
// the first sample between operations, evenly over the run, so that they
// sample the whole run rather than one moment of a shared host.
func (r *run) setup(prepare func() error) error {
	r.prepare = prepare
	return r.setupOnce()
}

func (r *run) setupOnce() error {
	id := r.tr.begin("setup", r.opts.workload+"/setup", 0)
	start := time.Now()
	if err := r.prepare(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.e2e.add("setup_s", time.Since(start).Seconds())
	r.tr.end(id)
	return nil
}

// measure calls op until opts.seconds have passed, and at least
// prof.minOps times, taking the set-up samples setup left: sample n is due
// n/prof.setups of the way through the run.
func (r *run) measure(op func() error) error {
	taken := func() int { return len(r.e2e.get("setup_s").Values) }
	missing := func() bool { return taken() < r.prof.setups }
	start := time.Now()
	for i := 0; i < r.prof.minOps || time.Since(start).Seconds() < r.opts.seconds; i++ {
		if err := op(); err != nil {
			return err
		}
		due := float64(taken()) * r.opts.seconds / float64(r.prof.setups)
		if missing() && time.Since(start).Seconds() >= due {
			if err := r.setupOnce(); err != nil {
				return err
			}
		}
	}
	for missing() {
		if err := r.setupOnce(); err != nil {
			return err
		}
	}
	return nil
}

// checkWitness compares the run's witness with the stored reference.
func (r *run) checkWitness() {
	for k, want := range r.ref {
		if got := r.witness[k]; got != want {
			r.fail(1, "witness %s = %q, reference %q", k, got, want)
		}
	}
}

func (r *run) correct() bool { return r.failed == 0 }

// runWorkload runs one workload in this process.
func runWorkload(o options, refs references) (*run, error) {
	r := newRun(o, refs)
	var err error
	switch o.workload {
	case "device-mix":
		err = runFleet(r, mixConfigs(r.prof.mixDevices, o.seed))
	case "fleet-ghm-traced":
		err = runFleet(r, ghmConfigs(r.prof.ghmDevices, o.seed))
	case "mc-sweep":
		err = runMC(r)
	case "gate-ingest":
		err = runGate(r)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	r.checkWitness()
	r.layer.fill()
	return r, nil
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fullMetric adds the sample count and quartiles.
type fullMetric struct {
	jsonMetric
	N  int     `json:"n"`
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
}

func jsonMetrics(s *metricSet) map[string]jsonMetric {
	out := map[string]jsonMetric{}
	for _, m := range s.list {
		out[m.Name] = jsonMetric{Value: m.value(), Unit: m.Unit}
	}
	return out
}

func fullMetrics(sets ...*metricSet) map[string]fullMetric {
	out := map[string]fullMetric{}
	for _, s := range sets {
		for _, m := range s.list {
			out[m.Name] = fullMetric{jsonMetric{m.value(), m.Unit}, len(m.Values), quantile(m.Values, 0.25), quantile(m.Values, 0.75)}
		}
	}
	return out
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// fullResult is what -json writes: every metric with its quartiles.
type fullResult struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Trace     bool                  `json:"trace"`
	Profile   string                `json:"profile"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]fullMetric `json:"metrics"`
	Witness   map[string]string     `json:"witness"`
}

// report prints the metric lines, the witness, the traced run's layer
// table and, last, the result line.
func (r *run) report(w io.Writer) error {
	w0 := r.opts.workload
	r.e2e.print(w, w0)
	metrics := jsonMetrics(&r.e2e)
	if r.tr != nil {
		r.layer.print(w, w0)
		r.tr.printTable(w, w0)
		metrics = jsonMetrics(&r.layer)
	}
	wit, err := json.Marshal(r.witness)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s witness %s\n", w0, wit)
	line, err := json.Marshal(resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *run) writeFiles() error {
	if r.tr != nil && r.opts.out != "" {
		path := filepath.Join(r.opts.out, "trace-"+r.opts.workload+".jsonl")
		if err := r.tr.writeJSONL(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans written to %s\n", r.opts.workload, len(r.tr.spans), path)
	}
	if r.opts.jsonOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(fullResult{
		Workload: r.opts.workload, Seed: r.opts.seed, Trace: r.opts.trace, Profile: r.prof.name,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: fullMetrics(&r.e2e, &r.layer), Witness: r.witness,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.opts.jsonOut, append(b, '\n'), 0o644)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (empty = every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the programs under test see only inputs generated from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: probes and spans on, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "smallest sizes that still reach every layer")
	flag.StringVar(&o.ticsgate, "ticsgate", "", "ticsgate binary (empty = build it)")
	flag.StringVar(&o.out, "out", ".", "directory for trace-<workload>.jsonl")
	flag.StringVar(&o.jsonOut, "json", "", "write the full result, quartiles included, to this file")
	flag.Parse()
	o.trace = trace != 0

	var err error
	if o.workload == "" {
		err = runAll(o)
	} else {
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness checks failed")

func runOne(o options) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if o.workload == "gate-ingest" && o.ticsgate == "" {
		dir, err := os.MkdirTemp("", "ticsgate-bin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if o.ticsgate, err = buildTicsgate(dir); err != nil {
			return err
		}
	}
	r, err := runWorkload(o, refs)
	if err != nil {
		return err
	}
	if err := r.writeFiles(); err != nil {
		return err
	}
	if err := r.report(os.Stdout); err != nil {
		return err
	}
	if !r.correct() {
		return errIncorrect
	}
	return nil
}

// buildTicsgate builds cmd/ticsgate into dir, before any timer starts.
func buildTicsgate(dir string) (string, error) {
	bin := filepath.Join(dir, "ticsgate")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/ticsgate")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building ticsgate: %w", err)
	}
	return bin, nil
}

// runAll runs every workload in its own child process, so RSS and GC
// state do not leak from one workload into the next. A traced run also
// runs each workload untraced and prints the difference in work_per_s
// as trace_overhead_pct.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if o.ticsgate == "" {
		if o.ticsgate, err = buildTicsgate(tmp); err != nil {
			return err
		}
	}
	child := func(w string, traced bool) (*fullResult, error) {
		out := filepath.Join(tmp, fmt.Sprintf("%s-%v.json", w, traced))
		args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-ticsgate", o.ticsgate, "-out", o.out, "-json", out}
		if traced {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		b, err := os.ReadFile(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (no result: %v)", w, runErr, err)
		}
		var res fullResult
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		return &res, nil
	}
	var results []*fullResult
	ok := true
	for _, w := range workloads {
		res, err := child(w, false)
		if err != nil {
			return err
		}
		results = append(results, res)
		ok = ok && res.Correct
		if !o.trace {
			continue
		}
		traced, err := child(w, true)
		if err != nil {
			return err
		}
		results = append(results, traced)
		ok = ok && traced.Correct
		base := res.Metrics["work_per_s"].Value
		fmt.Printf("%s trace_overhead_pct %s %% n=1\n", w, num(100*ratio(base-traced.Metrics["work_per_s"].Value, base)))
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errIncorrect
	}
	return nil
}
