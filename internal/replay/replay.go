// Package replay provides deterministic record/replay for machine runs.
//
// Every source of nondeterminism in a run is already seeded (harvester
// RNG, clock remanence, sensors), so a run is a pure function of its
// configuration. A Manifest pins that configuration down — program hash,
// runtime, power/clock specs, seed — plus the power windows *actually
// drawn*, so a replay does not even need the power source's RNG: it
// feeds back the recorded windows verbatim. Re-executing the manifest
// must reproduce the byte-identical event stream (verified by SHA-256
// over the JSONL encoding), and a divergence bisector replays the same
// manifest under a second runtime (or a second revision of the code) and
// reports the first event where the two streams part ways.
package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// Spec is the reproducible description of one run: everything ticsrun
// would need to set the run up again, in ticsrun's own flag syntax.
type Spec struct {
	App     string `json:"app,omitempty"`    // built-in benchmark name, or
	Source  string `json:"source,omitempty"` // inline TICS-C source
	Runtime string `json:"runtime"`
	Segment int    `json:"segment,omitempty"` // TICS segment bytes (0 = minimum)

	Power string `json:"power"` // continuous | duty:RATE | fail:CYCLES | sched:... | harvest:CAP,RATE
	Clock string `json:"clock"` // perfect | rtc:RES_MS | remanence:ERR,MAX_MS
	Seed  uint64 `json:"seed"`  // sensor/power/clock seed

	// Build knobs beyond Segment that change the image (and therefore the
	// event stream a replay must reproduce). StackBytes sizes the stack
	// region / TICS segment arena (0 = runtime default); UndoCapBytes
	// sizes the TICS undo log (0 = default); VersionGlobals toggles
	// Mementos' global versioning (nil = default true; false reproduces
	// the Table 1 WAR-violation counterexamples).
	StackBytes     int   `json:"stack_bytes,omitempty"`
	UndoCapBytes   int   `json:"undo_cap_bytes,omitempty"`
	VersionGlobals *bool `json:"version_globals,omitempty"`

	TimerMs   float64 `json:"timer_ms,omitempty"`
	WallMs    float64 `json:"wall_ms,omitempty"`
	MaxCycles int64   `json:"max_cycles,omitempty"`
	// Virtualize buffers radio sends in the runtime's commit machinery
	// (vm.Config.VirtualizeSends) so committed sends transmit exactly
	// once. Part of the spec because it changes the send log a replay
	// must reproduce.
	Virtualize bool `json:"virtualize,omitempty"`
}

// ResultDigest summarizes a run result for cross-checking a replay.
type ResultDigest struct {
	Completed bool   `json:"completed"`
	Starved   bool   `json:"starved,omitempty"`
	TimedOut  bool   `json:"timed_out,omitempty"`
	Fault     string `json:"fault,omitempty"`
	Cycles    int64  `json:"cycles"`
	Failures  int    `json:"failures"`
	Restores  int64  `json:"restores"`
	Commits   int64  `json:"commits"`
	Sends     int    `json:"sends"`
}

// DigestOf summarizes a run result. Manifests, fleet exports and mc
// reports all use it, so their digests agree field for field.
func DigestOf(res vm.Result) ResultDigest {
	d := ResultDigest{
		Completed: res.Completed,
		Starved:   res.Starved,
		TimedOut:  res.TimedOut,
		Cycles:    res.Cycles,
		Failures:  res.Failures,
		Restores:  res.Restores,
		Commits:   res.TotalCheckpoints,
		Sends:     len(res.SendLog),
	}
	if res.Fault != nil {
		d.Fault = res.Fault.Error()
	}
	return d
}

// Manifest is the serialized record of one run — the input ticsrun
// -record writes and -replay re-executes.
type Manifest struct {
	Version       int          `json:"version"`
	Spec          Spec         `json:"spec"`
	ProgramSHA256 string       `json:"program_sha256"` // hash of the program source text
	PowerName     string       `json:"power_name"`     // name of the recorded source
	Windows       []WindowRec  `json:"windows"`        // power windows actually drawn
	EventCount    int64        `json:"event_count"`
	EventsSHA256  string       `json:"events_sha256"` // SHA-256 of the full JSONL event stream
	Result        ResultDigest `json:"result"`
}

// Run is one executed (recorded or replayed) run with its full event
// stream — every event emitted, independent of ring capacity.
type Run struct {
	Events []obs.Event
	JSONL  []byte // the stream's JSONL encoding (the replay comparison unit)
	SHA256 string
	Result vm.Result
	Res    ResultDigest
}

// AttachFunc lets callers hook extra observers (the trace auditor) onto
// the machine before it runs.
type AttachFunc func(m *vm.Machine) error

// capture is the obs.Sink that retains the complete event stream.
type capture struct{ events []obs.Event }

func (c *capture) OnEvent(_ int64, ev obs.Event) { c.events = append(c.events, ev) }

// BuildImage resolves the spec's program (built-in app or inline source)
// and builds it for the spec's runtime. The returned image is immutable
// after linking, so callers running many devices (internal/fleet) build
// once and share it across machines; the source text is returned for
// program hashing.
func BuildImage(spec Spec) (*tics.Image, string, error) {
	opts := tics.BuildOptions{
		Runtime:        tics.RuntimeKind(spec.Runtime),
		SegmentBytes:   spec.Segment,
		StackBytes:     spec.StackBytes,
		UndoCapBytes:   spec.UndoCapBytes,
		VersionGlobals: spec.VersionGlobals,
	}
	src := spec.Source
	if spec.App != "" {
		app, ok := apps.ByName(spec.App)
		if !ok {
			return nil, "", fmt.Errorf("replay: unknown app %q", spec.App)
		}
		src = app.Source
		if opts.Runtime == tics.RTAlpaca || opts.Runtime == tics.RTInK || opts.Runtime == tics.RTMayFly {
			taskSrc, tasks, edges := app.TaskSource, app.Tasks, app.Edges
			if opts.Runtime == tics.RTMayFly {
				taskSrc, tasks, edges = app.ForMayfly()
			}
			if taskSrc == "" {
				return nil, "", fmt.Errorf("replay: %s has no task port", app.Name)
			}
			src, opts.Tasks, opts.Edges = taskSrc, tasks, edges
		}
	}
	if src == "" {
		return nil, "", fmt.Errorf("replay: spec names neither an app nor inline source")
	}
	img, err := tics.Build(src, opts)
	if err != nil {
		return nil, "", err
	}
	return img, src, nil
}

// Machine turns the spec into a machine ready to Run on img, which must
// be BuildImage(s)'s image. It is the one place a spec becomes run
// options, so a fleet device, an mc schedule, a recording, a replay and
// a plain ticsrun run of the same spec execute identically. A nil src
// parses s.Power (default "continuous") with s.Seed; the clock (default
// "perfect") and the sensor bank are seeded by s.Seed too. A non-nil m
// is reset in place (a pooled machine); a nil m is built fresh. rec may
// be nil for a run without observability.
func (s Spec) Machine(img *tics.Image, m *vm.Machine, src power.Source, rec *obs.Recorder) (*vm.Machine, error) {
	if src == nil {
		var err error
		if src, err = ParsePower(orDefault(s.Power, "continuous"), s.Seed); err != nil {
			return nil, err
		}
	}
	clock, err := ParseClock(orDefault(s.Clock, "perfect"), s.Seed)
	if err != nil {
		return nil, err
	}
	opts := tics.RunOptions{
		Power:           src,
		Clock:           clock,
		Sensors:         sensors.NewBank(s.Seed),
		AutoCpPeriodMs:  s.TimerMs,
		MaxWallMs:       s.WallMs,
		MaxCycles:       s.MaxCycles,
		VirtualizeSends: s.Virtualize,
		Recorder:        rec,
	}
	if m == nil {
		return tics.NewMachine(img, opts)
	}
	if err := tics.ResetMachine(m, img, opts); err != nil {
		return nil, err
	}
	return m, nil
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// execute runs the spec's image with the given power source and returns
// the full captured stream.
func execute(spec Spec, img *tics.Image, src power.Source, attach AttachFunc) (*Run, error) {
	rec := obs.NewRecorder(obs.Options{RingCap: 1024})
	cap := &capture{}
	rec.AddSink(cap)
	m, err := spec.Machine(img, nil, src, rec)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		if err := attach(m); err != nil {
			return nil, err
		}
	}
	res, _ := m.Run() // a fault is itself a reproducible outcome
	jsonl, err := obs.EventsJSONL(cap.events)
	if err != nil {
		return nil, err
	}
	return &Run{
		Events: cap.events,
		JSONL:  jsonl,
		SHA256: sha256Hex(jsonl),
		Result: res,
		Res:    DigestOf(res),
	}, nil
}

// Record executes the spec against its live power source, logging every
// window drawn, and returns the manifest a replay needs plus the run.
func Record(spec Spec, attach AttachFunc) (*Manifest, *Run, error) {
	spec.Power = orDefault(spec.Power, "continuous")
	spec.Clock = orDefault(spec.Clock, "perfect")
	inner, err := ParsePower(spec.Power, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	img, src, err := BuildImage(spec)
	if err != nil {
		return nil, nil, err
	}
	recSrc := &RecordingSource{Inner: inner}
	run, err := execute(spec, img, recSrc, attach)
	if err != nil {
		return nil, nil, err
	}
	man := &Manifest{
		Version:       1,
		Spec:          spec,
		ProgramSHA256: sha256Hex([]byte(src)),
		PowerName:     inner.Name(),
		Windows:       recSrc.Windows,
		EventCount:    int64(len(run.Events)),
		EventsSHA256:  run.SHA256,
		Result:        run.Res,
	}
	return man, run, nil
}

// Replay re-executes the manifest, feeding back the recorded power
// windows verbatim. Compare the returned run against the manifest with
// VerifyReplay.
func Replay(man *Manifest, attach AttachFunc) (*Run, error) {
	if man.Version != 1 {
		return nil, fmt.Errorf("replay: unsupported manifest version %d", man.Version)
	}
	img, _, err := BuildImage(man.Spec)
	if err != nil {
		return nil, err
	}
	return execute(man.Spec, img, &power.Schedule{Windows: man.Windows}, attach)
}

// VerifyReplay checks a replayed run against the manifest's recorded
// stream: event count, byte-identical JSONL (by SHA-256), and the result
// digest. nil means the replay reproduced the run exactly.
func VerifyReplay(man *Manifest, run *Run) error {
	if int64(len(run.Events)) != man.EventCount {
		return fmt.Errorf("replay diverged: %d events, recorded run had %d", len(run.Events), man.EventCount)
	}
	if run.SHA256 != man.EventsSHA256 {
		return fmt.Errorf("replay diverged: event stream SHA-256 %s != recorded %s", run.SHA256, man.EventsSHA256)
	}
	if run.Res != man.Result {
		return fmt.Errorf("replay diverged: result %+v != recorded %+v", run.Res, man.Result)
	}
	return nil
}

// FirstDivergence returns the index of the first event where the two
// streams differ (an index equal to the shorter length means one stream
// is a strict prefix of the other), and whether they diverge at all.
func FirstDivergence(a, b []obs.Event) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return -1, false
}

// BisectReport is the outcome of replaying one manifest under two
// runtimes (or two revisions).
type BisectReport struct {
	Identical bool
	Index     int // first divergent event index (valid when !Identical)
	Baseline  *Run
	Alt       *Run
	BaseEvent *obs.Event // event at Index in the baseline (nil if past its end)
	AltEvent  *obs.Event // event at Index in the alternate (nil if past its end)
}

func (r *BisectReport) String() string {
	if r.Identical {
		return fmt.Sprintf("streams identical (%d events)", len(r.Baseline.Events))
	}
	s := fmt.Sprintf("first divergence at event %d:\n", r.Index)
	if r.BaseEvent != nil {
		s += fmt.Sprintf("  baseline:  %s cycles=%d arg0=%d arg1=%d\n",
			r.BaseEvent.Kind, r.BaseEvent.Cycles, r.BaseEvent.Arg0, r.BaseEvent.Arg1)
	} else {
		s += fmt.Sprintf("  baseline:  <stream ends at %d events>\n", len(r.Baseline.Events))
	}
	if r.AltEvent != nil {
		s += fmt.Sprintf("  alternate: %s cycles=%d arg0=%d arg1=%d\n",
			r.AltEvent.Kind, r.AltEvent.Cycles, r.AltEvent.Arg0, r.AltEvent.Arg1)
	} else {
		s += fmt.Sprintf("  alternate: <stream ends at %d events>\n", len(r.Alt.Events))
	}
	return s
}

// Bisect replays the manifest twice — once as recorded and once under
// altRuntime (same program, same windows, same seeds) — and reports the
// first event-stream divergence. An empty altRuntime re-runs the
// recorded runtime, turning the bisector into a pure determinism check
// across revisions.
func Bisect(man *Manifest, altRuntime string, attach AttachFunc) (*BisectReport, error) {
	base, err := Replay(man, attach)
	if err != nil {
		return nil, err
	}
	altMan := *man
	if altRuntime != "" {
		altMan.Spec.Runtime = altRuntime
	}
	alt, err := Replay(&altMan, attach)
	if err != nil {
		return nil, err
	}
	rep := &BisectReport{Baseline: base, Alt: alt}
	idx, diverged := FirstDivergence(base.Events, alt.Events)
	if !diverged {
		rep.Identical = true
		return rep, nil
	}
	rep.Index = idx
	if idx < len(base.Events) {
		ev := base.Events[idx]
		rep.BaseEvent = &ev
	}
	if idx < len(alt.Events) {
		ev := alt.Events[idx]
		rep.AltEvent = &ev
	}
	return rep, nil
}

// WriteManifest serializes the manifest as indented JSON to path.
func WriteManifest(path string, man *Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadManifest loads a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return &man, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
