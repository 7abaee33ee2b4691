// Package tics is the public API of the TICS reproduction: a
// time-sensitive intermittent computing system for legacy code (Kortbeek
// et al., ASPLOS 2020), rebuilt as a full simulation stack in Go.
//
// The pipeline is Compile (TICS-C source → relocatable program) → Build
// (instrument + link for a runtime → firmware image + runtime factory) →
// NewMachine (attach power source, persistent clock, sensors) → Run.
//
//	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS})
//	m, err := tics.NewMachine(img, tics.RunOptions{Power: &power.DutyCycle{Rate: 0.5, OnMs: 100}})
//	res, err := m.Run()
//
// Everything below delegates to the internal packages; see DESIGN.md for
// the system inventory.
package tics

import (
	"fmt"
	"sync"

	"repro/internal/baseline/chinchilla"
	"repro/internal/baseline/mementos"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sensors"
	"repro/internal/taskrt"
	"repro/internal/timekeeper"
	"repro/internal/vm"
)

// RuntimeKind selects the intermittency-protection strategy.
type RuntimeKind string

const (
	// RTPlain is an unprotected conventional runtime: the correctness
	// oracle under continuous power, and the restart-from-main failure
	// mode under intermittent power.
	RTPlain RuntimeKind = "plain"
	// RTTICS is the paper's system.
	RTTICS RuntimeKind = "tics"
	// RTTICSTask is the paper's ST configuration: TICS with extra
	// checkpoints at logical task boundaries (mark sites).
	RTTICSTask RuntimeKind = "tics-st"
	// RTMementos is the naive full-state checkpointing baseline.
	RTMementos RuntimeKind = "mementos"
	// RTChinchilla is the static-promotion checkpointing baseline.
	RTChinchilla RuntimeKind = "chinchilla"
	// RTAlpaca, RTInK and RTMayFly are the task-based baselines; builds
	// need a task Config (BuildOptions.Tasks/Edges).
	RTAlpaca RuntimeKind = "alpaca"
	RTInK    RuntimeKind = "ink"
	RTMayFly RuntimeKind = "mayfly"
)

// Runtimes lists every supported runtime kind.
func Runtimes() []RuntimeKind {
	return []RuntimeKind{RTPlain, RTTICS, RTTICSTask, RTMementos, RTChinchilla, RTAlpaca, RTInK, RTMayFly}
}

// BuildOptions configures compilation, instrumentation and linking.
type BuildOptions struct {
	Runtime RuntimeKind
	// O0 compiles at optimization level 0 instead of the default 2.
	O0 bool

	// TICS knobs.
	SegmentBytes int // working-stack segment size (0 = program minimum)
	StackBytes   int // segment array size (default 2048)
	UndoCapBytes int // undo log capacity (default 2048)
	// UndoBlockBytes selects undo-log granularity (0/4 = per word, the
	// paper's design; larger powers of two log whole blocks once per
	// epoch). DifferentialCheckpoints captures only the used part of the
	// working segment. Both are ablation extensions — see core.Config.
	UndoBlockBytes          int
	DifferentialCheckpoints bool

	// Mementos knobs.
	VoltageThresholdCycles int64
	VersionGlobals         *bool // default true; false demonstrates WAR violations

	// Task decomposition (alpaca / ink / mayfly).
	Tasks     []string
	StartTask int
	Edges     []taskrt.Edge
}

// Image bundles a linked firmware image with a factory for its runtime
// (runtimes hold volatile mirrors of their non-volatile state, so every
// machine gets a fresh instance; their counters live in the machine).
//
// The image lazily caches a vm.Prepared — one decoded program plus one
// immutable post-link memory snapshot — that every machine built from it
// shares; devices fork the snapshot copy-on-write instead of each loading
// a private 64 KB copy. Images are therefore not copyable; pass *Image.
type Image struct {
	*link.Image
	Kind       RuntimeKind
	newRuntime func() (vm.Runtime, error)

	prepOnce sync.Once
	prep     *vm.Prepared
	prepErr  error
}

// prepared returns the image's shared vm.Prepared, building it on first
// use. Caching on the image (not in a global map keyed by image) keeps
// long-running servers that build fresh images per round leak-free.
func (img *Image) prepared() (*vm.Prepared, error) {
	img.prepOnce.Do(func() {
		img.prep, img.prepErr = vm.Prepare(img.Image)
	})
	return img.prep, img.prepErr
}

// Compile parses, checks and compiles TICS-C source at -O2 without
// committing to a runtime (useful for inspection and tests).
func Compile(src string) (*cc.Program, error) {
	return cc.Compile(src, cc.Options{})
}

// Build compiles, instruments and links src for the chosen runtime.
func Build(src string, opts BuildOptions) (*Image, error) {
	if opts.Runtime == "" {
		opts.Runtime = RTTICS
	}
	prog, err := cc.Compile(src, cc.Options{O0: opts.O0, StaticLocals: opts.Runtime == RTChinchilla})
	if err != nil {
		return nil, err
	}

	var pass instrument.Pass
	var spec link.RuntimeSpec
	switch opts.Runtime {
	case RTPlain:
		spec = link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: maxInt(opts.StackBytes, 2048)}
	case RTTICS, RTTICSTask:
		pass = instrument.ForTICS()
		if opts.Runtime == RTTICSTask {
			pass = instrument.ForTICSTaskBoundary()
		}
		spec = core.Spec(ticsConfig(opts), prog.MinSegmentBytes())
	case RTMementos:
		pass = instrument.ForMementos()
		stack := maxInt(opts.StackBytes, 2048)
		// Globals size is known pre-link: data + bss + mark counters.
		globals := int(prog.GlobalsBytes()) + 4*prog.MarkCount
		spec = mementos.Spec(mementosConfig(opts), globals, stack)
	case RTChinchilla:
		pass = instrument.ForChinchilla()
		spec = chinchilla.Spec(chinchilla.Config{StackBytes: opts.StackBytes}, prog)
	case RTAlpaca, RTInK, RTMayFly:
		if err := taskrt.Validate(taskConfig(opts), prog.HasRecursion, prog.UsesPointers); err != nil {
			return nil, err
		}
		pass = instrument.ForTask()
		spec = taskrt.Spec(taskConfig(opts))
	default:
		return nil, fmt.Errorf("tics: unknown runtime %q", opts.Runtime)
	}
	if opts.Runtime != RTPlain {
		if _, err := instrument.Apply(prog, pass); err != nil {
			return nil, err
		}
	}
	img, err := link.Link(prog, spec)
	if err != nil {
		return nil, err
	}

	out := &Image{Image: img, Kind: opts.Runtime}
	switch opts.Runtime {
	case RTPlain:
		out.newRuntime = func() (vm.Runtime, error) { return vm.NewPlain(), nil }
	case RTTICS, RTTICSTask:
		cfg := ticsConfig(opts)
		out.newRuntime = func() (vm.Runtime, error) { return core.New(img, cfg) }
	case RTMementos:
		cfg := mementosConfig(opts)
		out.newRuntime = func() (vm.Runtime, error) { return mementos.New(img, cfg) }
	case RTChinchilla:
		cfg := chinchilla.Config{StackBytes: opts.StackBytes}
		out.newRuntime = func() (vm.Runtime, error) { return chinchilla.New(img, cfg) }
	case RTAlpaca, RTInK, RTMayFly:
		cfg := taskConfig(opts)
		out.newRuntime = func() (vm.Runtime, error) { return taskrt.New(img, cfg) }
	}
	return out, nil
}

func ticsConfig(opts BuildOptions) core.Config {
	return core.Config{
		SegmentBytes:            opts.SegmentBytes,
		StackBytes:              opts.StackBytes,
		UndoCapBytes:            opts.UndoCapBytes,
		UndoBlockBytes:          opts.UndoBlockBytes,
		DifferentialCheckpoints: opts.DifferentialCheckpoints,
	}
}

func mementosConfig(opts BuildOptions) mementos.Config {
	cfg := mementos.DefaultConfig()
	cfg.VoltageThresholdCycles = opts.VoltageThresholdCycles
	if opts.VersionGlobals != nil {
		cfg.VersionGlobals = *opts.VersionGlobals
	}
	return cfg
}

func taskConfig(opts BuildOptions) taskrt.Config {
	kind := taskrt.Alpaca
	switch opts.Runtime {
	case RTInK:
		kind = taskrt.InK
	case RTMayFly:
		kind = taskrt.MayFly
	}
	return taskrt.Config{
		Kind:      kind,
		Tasks:     opts.Tasks,
		StartTask: opts.StartTask,
		Edges:     opts.Edges,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunOptions configures a machine.
type RunOptions struct {
	Power          power.Source
	Clock          timekeeper.Keeper
	Sensors        vm.SensorBank
	AutoCpPeriodMs float64
	MaxCycles      int64
	MaxFailures    int
	MaxWallMs      float64
	// InterruptPeriodMs fires a periodic timer interrupt into the
	// program's isr_timer function; zero disables.
	InterruptPeriodMs float64
	// VirtualizeSends buffers radio sends in the runtime's commit
	// machinery so each committed send transmits exactly once (see
	// vm.Config.VirtualizeSends). Off by default: the raw radio
	// duplicates replayed sends, as real hardware does.
	VirtualizeSends bool
	// Recorder attaches a flight recorder: structured event trace,
	// cycle-attributed profile, and metrics. Nil disables all recording
	// (the zero-cost default).
	Recorder *obs.Recorder
}

// machineConfig maps RunOptions onto a vm.Config sharing the image's
// prepared program; NewMachine and ResetMachine must build machines
// identically, so they both go through here.
func machineConfig(prep *vm.Prepared, rt vm.Runtime, opts RunOptions) vm.Config {
	if opts.Sensors == nil {
		opts.Sensors = sensors.NewBank(1)
	}
	return vm.Config{
		Prepared:          prep,
		Power:             opts.Power,
		Clock:             opts.Clock,
		Runtime:           rt,
		Sensors:           opts.Sensors,
		AutoCpPeriodMs:    opts.AutoCpPeriodMs,
		MaxCycles:         opts.MaxCycles,
		MaxFailures:       opts.MaxFailures,
		MaxWallMs:         opts.MaxWallMs,
		InterruptPeriodMs: opts.InterruptPeriodMs,
		VirtualizeSends:   opts.VirtualizeSends,
		Recorder:          opts.Recorder,
	}
}

// NewMachine instantiates a fresh device (copy-on-write fork of the
// image's post-link memory, fresh runtime state) for the image.
func NewMachine(img *Image, opts RunOptions) (*vm.Machine, error) {
	rt, err := img.newRuntime()
	if err != nil {
		return nil, err
	}
	prep, err := img.prepared()
	if err != nil {
		return nil, err
	}
	return vm.New(machineConfig(prep, rt, opts))
}

// ResetMachine rebinds a machine previously built by NewMachine(img, ...)
// to run as a brand-new device of the same image: memory returns to the
// post-link snapshot, all counters and logs clear, and a fresh runtime
// instance is installed. Device pools use it to reuse machines across
// waves; the result is indistinguishable from NewMachine.
func ResetMachine(m *vm.Machine, img *Image, opts RunOptions) error {
	rt, err := img.newRuntime()
	if err != nil {
		return err
	}
	prep, err := img.prepared()
	if err != nil {
		return err
	}
	return m.Reset(machineConfig(prep, rt, opts))
}

// Run is the one-shot helper: build, boot, run.
func Run(src string, b BuildOptions, r RunOptions) (vm.Result, error) {
	img, err := Build(src, b)
	if err != nil {
		return vm.Result{}, err
	}
	m, err := NewMachine(img, r)
	if err != nil {
		return vm.Result{}, err
	}
	return m.Run()
}
