// Package vm executes linked TICS-C images on a simulated intermittently
// powered MCU. The machine has a volatile register file (PC, SP, FP, RV),
// a non-volatile 64 KB main memory, a deterministic per-operation cycle
// cost model, and a power source that yields powered windows: when a
// window is exhausted mid-operation the volatile state is lost and the
// installed Runtime's Boot path decides what survives — exactly the
// paper's execution model.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/timekeeper"
)

// Registers is the volatile CPU state cleared by every power failure.
type Registers struct {
	PC uint32
	SP uint32
	FP uint32
	RV uint32
}

// EntryRegisters returns the register file a program starts with: PC at
// the image's entry stub and an empty stack.
func EntryRegisters(img *link.Image) Registers {
	top := img.StackBase + img.StackLen
	return Registers{PC: img.EntryPC, SP: top, FP: top}
}

// CpKind classifies why a checkpoint was taken.
type CpKind int

const (
	CpManual CpKind = iota
	CpTimer
	CpStackGrow
	CpStackShrink
	cpKindCount
)

func (k CpKind) String() string {
	switch k {
	case CpManual:
		return "manual"
	case CpTimer:
		return "timer"
	case CpStackGrow:
		return "stack-grow"
	case CpStackShrink:
		return "stack-shrink"
	}
	return "?"
}

// RuntimeCounter names one of the tallies runtimes keep in the machine's
// run state with Machine.Count; Result.RuntimeStats reports the nonzero
// ones under these names.
type RuntimeCounter uint8

const (
	CtrRestarts RuntimeCounter = iota
	CtrRestores
	CtrForcedCheckpoints
	CtrSkippedTriggers
	CtrStackGrows
	CtrStackShrinks
	CtrSuppressedGrowCps
	CtrSuppressedShrinkCps
	CtrExpiryRestores
	CtrInterrupts
	CtrISRCheckpoints
	CtrStoresDirect
	CtrStoresBlockHit
	CtrStoresLogged
	CtrStoresVersioned
	CtrUndoRollbacks
	CtrTaskRestarts
	CtrExpiredTokens
	CtrTransitions
	runtimeCounterCount
)

var runtimeCounterNames = [runtimeCounterCount]string{
	CtrRestarts:            "restarts",
	CtrRestores:            "restores",
	CtrForcedCheckpoints:   "forced-checkpoints",
	CtrSkippedTriggers:     "skipped-triggers",
	CtrStackGrows:          "stack-grows",
	CtrStackShrinks:        "stack-shrinks",
	CtrSuppressedGrowCps:   "suppressed-grow-cps",
	CtrSuppressedShrinkCps: "suppressed-shrink-cps",
	CtrExpiryRestores:      "expiry-restores",
	CtrInterrupts:          "interrupts",
	CtrISRCheckpoints:      "isr-checkpoints",
	CtrStoresDirect:        "stores-direct",
	CtrStoresBlockHit:      "stores-block-hit",
	CtrStoresLogged:        "stores-logged",
	CtrStoresVersioned:     "stores-versioned",
	CtrUndoRollbacks:       "undo-rollbacks",
	CtrTaskRestarts:        "task-restarts",
	CtrExpiredTokens:       "expired-tokens",
	CtrTransitions:         "transitions",
}

// powerFailure is the panic sentinel unwinding the current window.
type powerFailure struct{}

// machineFault aborts execution with a program error (wild store,
// divide by zero, stack overflow).
type machineFault struct{ err error }

// ErrStarved is returned when the program cannot make progress within the
// failure/cycle watchdog — the system-starvation phenomenon the paper
// describes for oversized checkpoints.
var ErrStarved = errors.New("vm: starved: no forward progress within the watchdog budget")

// SendRec is one radio transmission. Seq is the device's send sequence
// number: it advances per executed Send but only commits at commit points
// (checkpoint, task transition, end of run), so a send re-executed after a
// rollback — or after a restart-from-main reboot under the plain runtime —
// transmits again with the *same* sequence number. That is exactly the
// identity a gateway needs to deduplicate the raw radio's replayed
// packets; with VirtualizeSends every transmitted packet carries a unique
// Seq because only committed sends ever leave the device.
type SendRec struct {
	Value  int32
	TrueMs float64 // true wall-clock time of the transmission (commit time when virtualized)
	EstMs  int64   // the device's own clock at the transmission
	Seq    int64   // committed-send sequence number (see above)
	// EmitTrueMs/EmitEstMs snapshot the Send instruction's execution —
	// the moment the payload (typically a sensor reading) was produced.
	// For raw-radio sends they equal TrueMs/EstMs; for virtualized sends
	// the packet is held until the next commit point, so
	// TrueMs - EmitTrueMs is the commit latency the telemetry layer
	// reports per message span, and EmitEstMs is the payload's sensor
	// timestamp on the device clock.
	EmitTrueMs float64
	EmitEstMs  int64
	// PC is the address of the Send instruction that produced the packet,
	// letting offline checkers attribute a committed transmission back to
	// its program point (the reset-point model checker keys data-freshness
	// provenance on it).
	PC uint32
}

// CommitLatencyMs is the time the packet waited between its Send
// instruction and the commit point that released it to the radio (0 for
// raw-radio sends, which transmit immediately).
func (r SendRec) CommitLatencyMs() float64 { return r.TrueMs - r.EmitTrueMs }

// SensorBank provides sensor readings; implementations live in
// internal/sensors.
type SensorBank interface {
	Sense(id int32, trueMs float64) int32
}

// Config assembles a machine.
type Config struct {
	Image *link.Image
	// Prepared shares one decoded program and one immutable post-link
	// memory snapshot across many machines: with it set, New forks the
	// snapshot copy-on-write instead of loading and decoding the image
	// again. Image may be left nil (it is taken from Prepared) but must
	// match Prepared.Img when both are set. Build one with Prepare.
	Prepared *Prepared
	Power    power.Source
	Clock    timekeeper.Keeper
	Runtime  Runtime
	Sensors  SensorBank
	// AutoCpPeriodMs enables timer-driven checkpoints with the given
	// period (0 disables; the paper uses 10 ms).
	AutoCpPeriodMs float64
	// MaxCycles is the starvation watchdog (default 2e9 cycles ≈ 33
	// simulated minutes at 1 MHz).
	MaxCycles int64
	// MaxFailures bounds reboot loops (default 1e6).
	MaxFailures int
	// MaxWallMs ends the run (Result.TimedOut) once true wall-clock time —
	// on-time plus off-time — reaches this budget. Zero disables. The
	// fixed-duration experiments (Table 1) use it.
	MaxWallMs float64
	// InterruptPeriodMs fires a periodic timer interrupt every period of
	// powered time, delivered to the program's isr_timer function. Zero
	// disables. A pending interrupt is volatile: a power failure before
	// its ISR completes makes it vanish, exactly the paper's semantics
	// ("the system will continue as if the interrupt did not occur").
	InterruptPeriodMs float64
	// VirtualizeSends buffers radio sends in the runtime's commit
	// machinery so each committed send transmits exactly once — the
	// "virtualizing the I/O interface across power failures" the paper
	// names as future work. Off by default: the raw radio duplicates
	// replayed sends, as real hardware does.
	VirtualizeSends bool
	// Recorder attaches a flight recorder (event trace, cycle profiler,
	// metrics). Nil disables observability entirely; every emission site
	// then costs a single pointer check.
	Recorder *obs.Recorder
}

// Machine is the simulated MCU.
type Machine struct {
	Mem *mem.Memory
	Img *link.Image

	// runState holds everything a run changes (Reset clears it, Snapshot
	// copies it), including the exported Regs, CpDisable, Expiry*,
	// SendLog and OutLog fields.
	runState

	rt Runtime
	// Optional runtime hooks, resolved by apply; nil selects the default.
	framer    Framer
	preStorer PreStorer
	expirer   Expirer
	trans     Transitioner
	irq       Interrupter

	powerSrc power.Source
	clock    timekeeper.Keeper
	sensors  SensorBank

	autoCpCycles int64
	maxCycles    int64
	maxFailures  int
	maxWallMs    float64
	// onBoundary is the SetBoundaryHook hook. cycleLimit is the lesser of
	// maxCycles and the hook's next cycle: the one bound runWindow
	// compares the cycle counter against after each instruction, so the
	// hook costs no per-instruction work.
	onBoundary func(*Machine) int64
	cycleLimit int64

	// OnStore observes every program-order store (after the runtime's
	// consistency discipline) with the device clock reading; OnMark
	// observes Mark opcodes. Commit points and restores are events on the
	// recorder's stream (EvCheckpointCommit, EvRestore), which observers
	// that keep only *committed* effects follow as obs.Sinks.
	OnStore func(addr uint32, size int, val uint32, deviceMs int64)
	OnMark  func(id int32, deviceMs int64)
	// OnSend observes every transmission as it enters the committed
	// SendLog: immediately for raw-radio sends, at the releasing commit
	// point for virtualized ones (rec.TrueMs/EstMs are the commit stamps
	// by then). Rolled-back virtualized sends are never reported.
	OnSend func(rec SendRec)

	// Interrupt controller configuration.
	irqPeriodMs float64
	irqEntry    uint32

	virtualizeSends bool

	// decoded is the dense PC-indexed instruction table (shared with every
	// machine forked from the same Prepared); slot i describes address
	// textBase+i. windows is its stack-window side table, shared the same
	// way.
	decoded  []decodedInstr
	windows  []stackWindow
	textBase uint32
	// inRun is set while tryRun executes a run; runStart is the cycle
	// count the run started at, so a fault inside it can hand the
	// recorder the cycles charged so far. windowed is set while the run
	// works on its stack window, and runPC is its first instruction, so a
	// fault can count the stack words of the instructions run so far.
	// Between instructions, where snapshots are taken, no run is open.
	inRun    bool
	windowed bool
	runStart int64
	runPC    uint32
	// prepared is the shared image this machine forked from (nil when the
	// machine owns a privately loaded flat memory). Reset requires it.
	prepared *Prepared
	// funcNames is the image's function-name table, index-aligned with
	// decodedInstr.fn; shared like decoded, and handed to every attached
	// recorder.
	funcNames []string

	// rec is the attached flight recorder (nil when observability is off).
	rec *obs.Recorder
}

// runState is the part of a machine a run changes: registers, counters
// (the runtime's included), time, interrupt and expiry state, and the
// send and out logs.
type runState struct {
	Regs Registers
	// CpDisable is the nesting depth of atomic time-annotation regions
	// (@=, @expires, @timely); automatic checkpoints are suppressed while
	// it is positive. It is volatile but checkpointed by the runtimes.
	CpDisable int

	// Volatile expiry arm (re-armed by re-executing ExpCatch after boot).
	ExpiryArmed    bool
	ExpiryDeadline int64
	ExpiryCatchPC  uint32

	remaining     int64 // cycles left in the current window
	pendingOffMs  float64
	winStart      int64 // cycle count when the current window began
	cycles        int64
	sinceCp       int64
	onMs          float64
	offMs         float64
	estMs         float64 // the device clock: on-times exact, off-times estimated
	failures      int
	halted        bool
	timedOut      bool
	remainingRead bool // something read Remaining() during this run
	sensed        bool // the program read the sensor bank during this run

	// Interrupt controller state (volatile).
	nextIrqMs float64
	inISR     bool
	isrRetPC  uint32
	isrRetSP  uint32

	cpCounts [cpKindCount]int64
	restores int64
	irqCount int64
	counts   [runtimeCounterCount]int64 // by RuntimeCounter (Count)

	SendLog     []SendRec
	sendPending []SendRec
	// sendSeq numbers Send executions; sendSeqCommitted is its NV shadow,
	// advanced only at commit points. A power failure or rollback rewinds
	// sendSeq to the committed value, so re-executed sends reuse their
	// sequence numbers (the dedup identity fleet gateways key on).
	sendSeq          int64
	sendSeqCommitted int64
	// OutLog is the committed verification channel: Out-opcode values stay
	// pending until a commit point (checkpoint, task transition, or end of
	// run) and are dropped when a restore rolls their execution back, so
	// the log reflects exactly the committed execution. SendLog, by
	// contrast, is the raw radio: replayed sends appear twice, the real
	// phenomenon the paper defers to I/O virtualization future work.
	OutLog     map[int32][]int32
	outPending []outEntry
}

// classCost is the cycle price of each isa.Class, and classMs the same
// in ms, as Spend computes it.
var (
	classCost = [4]int64{
		isa.ClassALU:  energy.Instr,
		isa.ClassMem:  energy.InstrMem,
		isa.ClassCtl:  energy.InstrCtl,
		isa.ClassTrap: energy.TrapBase,
	}
	classMs = [4]float64{
		isa.ClassALU:  float64(energy.Instr) / energy.CyclesPerMs,
		isa.ClassMem:  float64(energy.InstrMem) / energy.CyclesPerMs,
		isa.ClassCtl:  float64(energy.InstrCtl) / energy.CyclesPerMs,
		isa.ClassTrap: float64(energy.TrapBase) / energy.CyclesPerMs,
	}
)

// decodedInstr is one slot of the decoded table. The slots of an
// immediate's bytes stay zero (ok unset), so a jump into the middle of an
// instruction faults.
//
// run and runMem describe the straight-line run starting at the slot (see
// straightLine): how many instructions it holds, capped at 255, and how
// many of those are ClassMem, the rest being ClassALU. Its cycle price is
// therefore runMem×InstrMem + (run−runMem)×Instr, the basic-block cost of
// the code from this slot to the next branch or trap. Both live in what
// would otherwise be padding: the slot stays 20 bytes.
type decodedInstr struct {
	in     isa.Instr
	next   uint32
	fn     int32     // enclosing function index (-1 for the boot stub)
	class  isa.Class // cost class, resolved once at decode time
	ok     bool      // an instruction starts at this address
	run    uint8     // straight-line instructions from here (0: this one is not)
	runMem uint8     // how many of them are ClassMem
}

// stackWindow is the side-table entry, indexed like the decoded table,
// of the straight-line run starting at a slot: the stack bytes
// [SP+lo, SP+hi) its pushes and pops touch, SP taken at the run's start,
// and how many stack words they read and write (isa.StackEffect summed
// over the run). lo == hi when the run touches no stack word, or when the
// bytes it touches cannot fit one page; such a run has no window.
type stackWindow struct {
	lo, hi        int16
	reads, writes uint16
}

type outEntry struct {
	ch  int32
	val int32
}

// Prepared is the shareable, immutable part of a device: the decoded
// program and the post-link memory snapshot. One Prepared serves any
// number of machines concurrently — fleets fork thousands of devices from
// a single one instead of re-loading and re-decoding the image per device.
type Prepared struct {
	Img       *link.Image
	decoded   []decodedInstr
	windows   []stackWindow
	funcNames []string
	base      *mem.Base
}

// Prepare loads img into a scratch memory, freezes the result as the
// copy-on-write base, and decodes the text segment once.
func Prepare(img *link.Image) (*Prepared, error) {
	if img == nil {
		return nil, errors.New("vm: prepare needs an image")
	}
	scratch := mem.New()
	if err := img.LoadInto(scratch); err != nil {
		return nil, err
	}
	decoded, windows, err := decodeImage(img)
	if err != nil {
		return nil, err
	}
	return &Prepared{Img: img, decoded: decoded, windows: windows, funcNames: funcNames(img), base: scratch.Freeze()}, nil
}

// funcNames lists the image's function names by function index.
func funcNames(img *link.Image) []string {
	names := make([]string, len(img.Funcs))
	for i, f := range img.Funcs {
		names[i] = f.Name
	}
	return names
}

// normalize resolves the Prepared/Image pair and fills config defaults.
func (cfg Config) normalize() (Config, error) {
	if cfg.Prepared != nil {
		if cfg.Image == nil {
			cfg.Image = cfg.Prepared.Img
		} else if cfg.Image != cfg.Prepared.Img {
			return cfg, errors.New("vm: config image differs from the prepared image")
		}
	}
	if cfg.Image == nil {
		return cfg, errors.New("vm: config needs an image")
	}
	if cfg.Power == nil {
		cfg.Power = power.Continuous{}
	}
	if cfg.Clock == nil {
		cfg.Clock = &timekeeper.Perfect{}
	}
	if cfg.Runtime == nil {
		cfg.Runtime = NewPlain()
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 1_000_000
	}
	return cfg, nil
}

// apply installs a normalized config on a machine whose memory and
// decoded program are already in place. Shared by New and Reset.
func (m *Machine) apply(cfg Config) error {
	m.Img = cfg.Image
	m.setRuntime(cfg.Runtime)
	m.powerSrc = cfg.Power
	m.clock = cfg.Clock
	m.sensors = cfg.Sensors
	m.maxCycles = cfg.MaxCycles
	m.SetBoundaryHook(math.MaxInt64, nil)
	m.maxFailures = cfg.MaxFailures
	m.maxWallMs = cfg.MaxWallMs
	m.virtualizeSends = cfg.VirtualizeSends
	m.OutLog = map[int32][]int32{}
	m.autoCpCycles = int64(cfg.AutoCpPeriodMs * energy.CyclesPerMs)
	m.irqPeriodMs, m.irqEntry = 0, 0
	if cfg.InterruptPeriodMs > 0 {
		const name = "isr_timer"
		found := false
		for _, f := range cfg.Image.Funcs {
			if f.Name == name {
				if f.NArgs != 0 {
					return fmt.Errorf("vm: ISR %s must take no arguments", name)
				}
				m.irqEntry = f.Entry
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("vm: no ISR function %q in the image", name)
		}
		m.irqPeriodMs = cfg.InterruptPeriodMs
		m.nextIrqMs = m.onMs + m.irqPeriodMs
	}
	m.AttachRecorder(cfg.Recorder)
	return nil
}

// setRuntime installs rt and resolves its optional hooks.
func (m *Machine) setRuntime(rt Runtime) {
	m.rt = rt
	m.framer, _ = rt.(Framer)
	m.preStorer, _ = rt.(PreStorer)
	m.expirer, _ = rt.(Expirer)
	m.trans, _ = rt.(Transitioner)
	m.irq, _ = rt.(Interrupter)
}

// New builds a machine and leaves it ready to Run. With cfg.Prepared it
// forks the shared post-link snapshot copy-on-write and reuses the shared
// decoded program; otherwise it loads the image into a fresh flat memory
// and decodes it privately.
func New(cfg Config) (*Machine, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	m := &Machine{textBase: cfg.Image.TextBase}
	if cfg.Prepared != nil {
		m.Mem = mem.Fork(cfg.Prepared.base)
		m.decoded = cfg.Prepared.decoded
		m.windows = cfg.Prepared.windows
		m.funcNames = cfg.Prepared.funcNames
		m.prepared = cfg.Prepared
	} else {
		m.Mem = mem.New()
		if err := cfg.Image.LoadInto(m.Mem); err != nil {
			return nil, err
		}
		if m.decoded, m.windows, err = decodeImage(cfg.Image); err != nil {
			return nil, err
		}
		m.funcNames = funcNames(cfg.Image)
	}
	if err := m.apply(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebinds a machine built from a Prepared image for reuse: memory
// returns to the post-link snapshot, every counter, log and volatile
// register is cleared, and the (re-normalized) config is applied as New
// would. The previous run's Result keeps ownership of the old SendLog and
// OutLog; only the machine's references are dropped. cfg.Prepared must be
// the machine's own prepared image.
func (m *Machine) Reset(cfg Config) error {
	cfg, err := cfg.normalize()
	if err != nil {
		return err
	}
	if m.prepared == nil || cfg.Prepared != m.prepared {
		return errors.New("vm: Reset needs the machine's own prepared image")
	}
	m.Mem.ResetToBase(cfg.Prepared.base)
	m.runState = runState{sendPending: m.sendPending[:0], outPending: m.outPending[:0]}
	m.OnStore, m.OnMark, m.OnSend = nil, nil, nil
	return m.apply(cfg)
}

// decodeImage decodes the image's text segment into the dense table
// machines dispatch from: one slot per text byte, indexed by
// pc - img.TextBase. A backward pass then marks each slot's straight-line
// run, and a forward walk of each run fills its stack window.
func decodeImage(img *link.Image) ([]decodedInstr, []stackWindow, error) {
	code := img.Text
	decoded := make([]decodedInstr, len(code))
	var offs []int
	for off := 0; off < len(code); {
		in, next, err := isa.Decode(code, off)
		if err != nil {
			return nil, nil, err
		}
		addr := img.TextBase + uint32(off)
		decoded[off] = decodedInstr{
			in:    in,
			next:  img.TextBase + uint32(next),
			fn:    int32(fnAt(img, addr)),
			class: isa.Lookup(in.Op).Class,
			ok:    true,
		}
		offs = append(offs, off)
		off = next
	}
	// Walking backward, tail[j] is the uncapped length of the run from
	// instruction j and mems[j] the ClassMem count of instructions j and
	// after, so a capped run's ClassMem count is a difference of two.
	tail := make([]int, len(offs)+1)
	mems := make([]int, len(offs)+1)
	for j := len(offs) - 1; j >= 0; j-- {
		d := &decoded[offs[j]]
		mems[j] = mems[j+1]
		if d.class == isa.ClassMem {
			mems[j]++
		}
		if !straightLine(d.in.Op) {
			continue
		}
		tail[j] = 1 + tail[j+1]
		n := min(tail[j], math.MaxUint8)
		d.run, d.runMem = uint8(n), uint8(mems[j]-mems[j+n])
	}
	windows := make([]stackWindow, len(code))
	for _, off := range offs {
		if n := decoded[off].run; n > 0 {
			windows[off] = windowOf(decoded, img.TextBase, uint32(off), int(n))
		}
	}
	return decoded, windows, nil
}

// windowOf walks the n-instruction run at slot off and returns its stack
// window. Each instruction's pops read the words from SP up and raise SP
// past them, then its pushes lower SP and write the words from SP up
// (isa.StackEffect); AddSP moves SP by its immediate.
func windowOf(decoded []decodedInstr, textBase, off uint32, n int) stackWindow {
	var sp, reads, writes int // sp is SP's offset from the run's start
	lo, hi := math.MaxInt, math.MinInt
	for range n {
		d := &decoded[off]
		pops, pushes := isa.StackEffect(d.in.Op)
		if pops > 0 {
			lo, hi = min(lo, sp), max(hi, sp+4*pops)
			sp += 4 * pops
		}
		if pushes > 0 {
			sp -= 4 * pushes
			lo, hi = min(lo, sp), max(hi, sp+4*pushes)
		}
		if d.in.Op == isa.AddSP {
			sp += int(d.in.Imm)
		}
		reads, writes = reads+pops, writes+pushes
		off = d.next - textBase
	}
	w := stackWindow{reads: uint16(reads), writes: uint16(writes)}
	if lo < hi && hi-lo <= mem.PageSize && lo >= math.MinInt16 && hi <= math.MaxInt16 {
		w.lo, w.hi = int16(lo), int16(hi)
	}
	return w
}

// straightLine reports whether op may sit inside a straight-line run: it
// falls through to the next instruction, costs its class price (ALU or
// memory) and nothing more, reads no clock, and calls no runtime hook.
// Raw stores qualify (their OnStore observers see a clock advanced per
// instruction); logged stores, Mark and SetTS go through the runtime, and
// every branch, call, frame op and trap ends a run.
func straightLine(op isa.Op) bool {
	switch op {
	case isa.Nop, isa.PushI, isa.Dup, isa.Drop, isa.Swap,
		isa.LoadG, isa.StoreG, isa.LoadGB, isa.StoreGB, isa.LoadL, isa.StoreL,
		isa.AddrL, isa.LoadI, isa.StoreI, isa.LoadIB, isa.StoreIB,
		isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.Neg, isa.Not, isa.LNot,
		isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt, isa.CmpGe,
		isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU,
		isa.SetRV, isa.GetRV, isa.AddSP:
		return true
	}
	return false
}

// instrAt returns the decoded instruction starting at pc, or nil when pc
// is not an instruction boundary (below the text, past its end, or inside
// an instruction). A pc below TextBase wraps the offset past the table.
func (m *Machine) instrAt(pc uint32) *decodedInstr {
	off := pc - m.textBase
	if off >= uint32(len(m.decoded)) || !m.decoded[off].ok {
		return nil
	}
	return &m.decoded[off]
}

// fnAt resolves an instruction address to its enclosing function index
// (-1 for the boot stub). Function bodies are laid out contiguously in
// image order, so the enclosing function is the last one whose entry is
// at or below addr.
func fnAt(img *link.Image, addr uint32) int {
	fn := -1
	for i, f := range img.Funcs {
		if f.Entry > addr {
			break
		}
		fn = i
	}
	return fn
}

// ---- Accessors used by runtimes ----

// Runtime returns the installed runtime.
func (m *Machine) Runtime() Runtime { return m.rt }

// AttachRecorder wires a flight recorder to the machine (nil detaches).
// Call before Run; the machine installs the image's function-name table
// (built once per image and shared, so the recorder must not modify it)
// so the recorder's profiler can resolve symbols.
func (m *Machine) AttachRecorder(rec *obs.Recorder) {
	m.rec = rec
	if rec != nil {
		rec.SetFunctions(m.funcNames)
	}
}

// Recorder returns the attached flight recorder (nil when disabled).
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// ObserveStores adds fn as a store observer, chaining after any observer
// already installed in OnStore so multiple watchers (a violation
// detector plus the trace auditor, say) compose instead of clobbering
// each other.
func (m *Machine) ObserveStores(fn func(addr uint32, size int, val uint32, deviceMs int64)) {
	if prev := m.OnStore; prev != nil {
		m.OnStore = func(addr uint32, size int, val uint32, deviceMs int64) {
			prev(addr, size, val, deviceMs)
			fn(addr, size, val, deviceMs)
		}
		return
	}
	m.OnStore = fn
}

// EmitEvent records a flight-recorder event stamped with the machine's
// cycle counter and clocks. A no-op without an attached recorder —
// runtimes call this unconditionally.
func (m *Machine) EmitEvent(kind obs.EventKind, a0, a1 int64) {
	if m.rec == nil {
		return
	}
	m.rec.Emit(obs.Event{
		Kind:     kind,
		Cycles:   m.cycles,
		TrueMs:   m.TrueNowMs(),
		DeviceMs: m.Now(),
		Arg0:     a0,
		Arg1:     a1,
	})
}

// PushCat / PopCat bracket a runtime operation so the profiler attributes
// its cycles to the given overhead category. No-ops without a recorder.
func (m *Machine) PushCat(c obs.Category) {
	if m.rec != nil {
		m.rec.PushCategory(c)
	}
}

// PopCat leaves the innermost profiler category.
func (m *Machine) PopCat() {
	if m.rec != nil {
		m.rec.PopCategory()
	}
}

// resetRecStack re-roots the profiler's shadow call stack at the current
// PC after a control-flow discontinuity (boot, restore, task switch).
// When PC sits exactly on an Enter instruction the frame is about to be
// pushed by its execution, so the seed stays empty.
func (m *Machine) resetRecStack() {
	if m.rec == nil {
		return
	}
	fn := -1
	if d := m.instrAt(m.Regs.PC); d != nil && d.in.Op != isa.Enter {
		fn = int(d.fn)
	}
	m.rec.ResetStack(fn)
}

// CpDisabled reports whether automatic checkpoints are currently
// suppressed by an atomic time-annotation region.
func (m *Machine) CpDisabled() bool { return m.CpDisable > 0 }

// Now returns the device clock: the elapsed milliseconds as the device
// estimates them, its powered time exact and each outage as the
// persistent timekeeper estimated it.
func (m *Machine) Now() int64 { return int64(m.estMs) }

// TrueNowMs returns the true wall-clock time (on + off) in milliseconds.
func (m *Machine) TrueNowMs() float64 { return m.onMs + m.offMs }

// Cycles returns total executed cycles.
func (m *Machine) Cycles() int64 { return m.cycles }

// Remaining returns the cycles left in the current powered window — the
// "voltage check" proxy used by Mementos-style trigger checkpoints. A run
// that has read it depends on its window, so from then on it calls no
// boundary hook (see SetBoundaryHook).
func (m *Machine) Remaining() int64 {
	m.remainingRead = true
	return m.remaining
}

// Sensed reports whether the program has read the sensor bank during
// this run. The readings depend on the bank's seed, so a state taken
// after one is not shared with a machine seeded differently.
func (m *Machine) Sensed() bool { return m.sensed }

// SinceCheckpoint returns cycles executed since the last checkpoint.
func (m *Machine) SinceCheckpoint() int64 { return m.sinceCp }

// NoteCheckpoint records a completed checkpoint of the given kind and
// resets the timer-checkpoint clock.
func (m *Machine) NoteCheckpoint(kind CpKind) {
	m.cpCounts[kind]++
	m.sinceCp = 0
	m.CommitObservables()
	m.EmitEvent(obs.EvCheckpointCommit, int64(kind), 0)
}

// CommitObservables flushes pending Out values into the committed log and
// transmits any virtualized sends (charging the radio cost now). Runtimes
// whose commit point is not a checkpoint (task transitions) call it
// directly.
func (m *Machine) CommitObservables() {
	if m.rec != nil {
		m.rec.OnCommit()
	}
	for _, e := range m.outPending {
		m.OutLog[e.ch] = append(m.OutLog[e.ch], e.val)
	}
	m.outPending = m.outPending[:0]
	// No Spend here: the flush must be atomic with the commit (a failure
	// between them would drop already-committed packets).
	for _, rec := range m.sendPending {
		rec.TrueMs = m.TrueNowMs()
		rec.EstMs = m.Now()
		m.SendLog = append(m.SendLog, rec)
		if m.OnSend != nil {
			m.OnSend(rec)
		}
	}
	m.sendPending = m.sendPending[:0]
	m.sendSeqCommitted = m.sendSeq
}

// Count adds 1 to one of the runtime's counters.
func (m *Machine) Count(c RuntimeCounter) { m.counts[c]++ }

// NoteRestore records a completed post-failure restore.
func (m *Machine) NoteRestore() {
	m.restores++
	m.outPending = m.outPending[:0] // the rolled-back execution never happened
	m.sendPending = m.sendPending[:0]
	m.sendSeq = m.sendSeqCommitted // re-executed sends reuse their seq numbers
	m.EmitEvent(obs.EvRestore, 0, 0)
}

// Spend charges cycles; it panics with the power-failure sentinel when the
// window is exhausted, so multi-step runtime operations (checkpoint
// copies, undo-log appends) can die halfway exactly like real FRAM writes.
//
// Time is kept in floats: each charge adds c/CyclesPerMs to the on-time
// and to the clock estimate. Float addition does not associate, so a
// batch of charges (spendEach, a straight-line run) must make the same
// adds in the same order, never one add of their sum; only the integer
// counters and the recorder may take a batch's total at once.
func (m *Machine) Spend(c int64) { m.charge(c, float64(c)/energy.CyclesPerMs) }

// charge is Spend with c's time in ms, float64(c)/CyclesPerMs, worked out
// by the caller (step reads it from classMs).
func (m *Machine) charge(c int64, ms float64) {
	m.remaining -= c
	m.cycles += c
	m.sinceCp += c
	m.onMs += ms
	m.estMs += ms
	if m.rec != nil {
		// Attribute before the failure check: cycles charged by the dying
		// operation are consumed cycles too.
		m.rec.OnSpend(c)
	}
	if m.remaining < 0 {
		panic(powerFailure{})
	}
}

// spendEach charges k units of c cycles as k Spend(c) calls would, bit
// for bit: the k ordered float adds to the on-time and the clock each
// land where addEach puts them, and the integer counters and the
// recorder take the total once. The caller guarantees the window covers
// all k (remaining ≥ k×c); a charge that may run out goes through Spend.
func (m *Machine) spendEach(c int64, k int) {
	total := c * int64(k)
	m.remaining -= total
	m.cycles += total
	m.sinceCp += total
	ms := float64(c) / energy.CyclesPerMs
	m.onMs = addEach(m.onMs, ms, k)
	m.estMs = addEach(m.estMs, ms, k)
	if m.rec != nil {
		m.rec.OnSpend(total)
	}
	if m.remaining < 0 {
		panic(powerFailure{})
	}
}

// addEach returns x after k rounded adds of d (x += d, k times), for
// finite x ≥ 0 and d ≥ 0, bit for bit, in closed form where the adds are
// provably uniform.
//
// Inside one binade [2ᵉ, 2ᵉ⁺¹) every float is a multiple of the binade's
// ulp u, and while x+d stays below the top 2ᵉ⁺¹ it rounds to a multiple
// of u: the step fl(x+d)−x is d rounded to a multiple of u, the same for
// every x of the binade, bar a tie. When d lies exactly halfway between
// two multiples, ties-to-even picks by the parity of x/u, but a tied add
// always lands on an even multiple, so after one add made inside the
// binade every later one rounds the same way (below 2⁻¹⁰²² the grid is
// the subnormal one, as uniform). So once the two adds before x both
// started inside x's binade, each further add moves x by δ = x − x₁, and
// n of them whose results stay below the top come to x + n·δ exactly: a
// multiple of u inside the binade, where the one add rounds nothing. n
// is taken two steps short of the top, which covers the rounding of the
// division that finds it. addEach makes single adds until that holds,
// jumps, and does the same in the next binade.
func addEach(x, d float64, k int) float64 {
	const mantissa = 1<<52 - 1
	for k >= 2 {
		x0 := x
		x1 := x0 + d
		x = x1 + d
		k -= 2
		bin := math.Float64bits(x) &^ mantissa
		lo, top := math.Float64frombits(bin), math.Float64frombits(bin+1<<52)
		if x0 < lo || math.IsInf(top, 1) {
			continue
		}
		n := k
		if step := x - x1; step > 0 {
			if q := (top - x) / step; q < float64(k+2) {
				n = int(q) - 2
			}
			if n <= 0 {
				continue
			}
			x += float64(n) * step
		}
		k -= n
	}
	if k == 1 {
		x += d
	}
	return x
}

// CopyCharged copies n bytes (whole words) from src to dst as if one word
// at a time, charging passes×(NV read + NV write) before each word, so a
// power failure mid-copy leaves exactly the words copied so far.
// Checkpoints charge two passes (the two-phase commit), restores one.
//
// The words the window pays for are charged through one spendEach and
// moved in one page-wise Memory.CopyWords, which counts the traffic word
// by word; the first word it cannot pay for fails in Spend as in the word
// loop. Overlapping and out-of-range copies, where the word loop is not a
// memmove or faults partway, run the word loop itself.
func (m *Machine) CopyCharged(dst, src uint32, n int, passes int64) {
	c := passes * (energy.NVReadPerWord + energy.NVWritePerWord)
	words := (n + mem.WordBytes - 1) / mem.WordBytes
	done := 0
	if words > 0 && disjointInRange(dst, src, words*mem.WordBytes) {
		done = words
		if c > 0 {
			done = int(min(int64(words), max(m.remaining/c, 0)))
		}
		if done > 0 {
			m.spendEach(c, done)
			m.Mem.CopyWords(dst, src, done)
		}
	}
	for off := done * mem.WordBytes; off < n; off += mem.WordBytes {
		m.Spend(c)
		m.Mem.WriteWord(dst+uint32(off), m.Mem.ReadWord(src+uint32(off)))
	}
}

// disjointInRange reports whether [dst, dst+n) and [src, src+n) lie in
// the address space without overlapping.
func disjointInRange(dst, src uint32, n int) bool {
	d, s, l := uint64(dst), uint64(src), uint64(n)
	return d+l <= mem.Size && s+l <= mem.Size && (d+l <= s || s+l <= d)
}

// Halt stops the machine as if the program executed Halt (used by task
// runtimes when the final task transitions to the done sentinel).
func (m *Machine) Halt() { m.halted = true }

// PowerOn grants a powered window directly, bypassing the power source.
// Micro-benchmark harnesses (Table 4) use it to drive runtime operations
// outside Run.
func (m *Machine) PowerOn(cycles int64) { m.remaining = cycles }

// Fault aborts execution with a program fault.
func (m *Machine) Fault(format string, args ...any) {
	panic(machineFault{fmt.Errorf(format, args...)})
}

// Push pushes a word onto the machine stack.
func (m *Machine) Push(v uint32) {
	sp := m.Regs.SP - 4
	if sp < m.Img.StackBase {
		m.stackOverflow(sp)
	}
	m.Regs.SP = sp
	m.Mem.WriteWord(sp, v)
}

// Pop pops a word from the machine stack.
func (m *Machine) Pop() uint32 {
	sp := m.Regs.SP
	if sp >= m.Img.StackBase+m.Img.StackLen {
		m.stackUnderflow()
	}
	v := m.Mem.ReadWord(sp)
	m.Regs.SP = sp + 4
	return v
}

// stackOverflow and stackUnderflow fault a Push or Pop out of line, so
// the two stay small.
//
//go:noinline
func (m *Machine) stackOverflow(sp uint32) {
	m.Fault("stack overflow: SP=%#x below stack base %#x", sp, m.Img.StackBase)
}

//go:noinline
func (m *Machine) stackUnderflow() {
	m.Fault("stack underflow: SP=%#x", m.Regs.SP)
}

// writable reports whether the program may store to addr (globals, mark
// counters, or the stack region — never text or the runtime area). The
// end is computed in 64 bits so an address near 2^32 cannot wrap past
// the check.
func (m *Machine) writable(addr uint32, size int) bool {
	end := uint64(addr) + uint64(size)
	return addr >= m.Img.GlobalsBase && end <= uint64(m.Img.StackBase)+uint64(m.Img.StackLen)
}

// RawStore performs an uninstrumented program store with bounds checking.
// All program-order stores funnel through here (the runtimes' LoggedStore
// implementations included), which is where the store observer hooks in.
func (m *Machine) RawStore(addr uint32, size int, v uint32) {
	if !m.writable(addr, size) {
		m.Fault("wild store of %d bytes at %#x", size, addr)
	}
	if size == 1 {
		m.Mem.WriteByteAt(addr, byte(v))
	} else {
		m.Mem.WriteWord(addr, v)
	}
	if m.OnStore != nil {
		m.OnStore(addr, size, v, m.Now())
	}
}

// ---- Execution ----

// Result summarizes a run.
type Result struct {
	Completed bool
	Starved   bool
	TimedOut  bool // the MaxWallMs budget elapsed first
	Fault     error

	Cycles   int64
	OnMs     float64
	OffMs    float64
	Failures int
	Restores int64

	Checkpoints      map[string]int64
	TotalCheckpoints int64
	Interrupts       int64
	// RuntimeStats holds the runtime's nonzero counters (see
	// RuntimeCounter) by name, plus TotalCheckpoints as "checkpoints"
	// once there is one. Every Result gets a map of its own.
	RuntimeStats map[string]int64

	SendLog    []SendRec
	OutLog     map[int32][]int32
	MarkCounts []int64

	MemStats mem.Stats
}

// WallMs returns total true elapsed time.
func (r Result) WallMs() float64 { return r.OnMs + r.OffMs }

// Run executes the image to completion (Halt), starvation, or fault.
func (m *Machine) Run() (Result, error) { return m.RunFrom(nil, nil) }

// RunFrom starts a machine that has not run since New or Reset: it draws
// the first power window, restores the latest of snaps (taken in cycle
// order) that the window covers, or boots cold inside it when none fits,
// and runs. The restored machine continues from the instruction boundary
// its snapshot was taken at, in the drawn window with the cycles the
// snapshot had spent in its own window already gone: a snapshot S cycles
// into a continuous run, started under a source whose first window is
// C ≥ S cycles, continues with C-S cycles left, exactly where a cold run
// of that source stands at cycle S — provided nothing before S read
// Remaining(), which SetBoundaryHook guarantees. A snapshot past the
// watchdog does not fit either. restored, when set, learns the index of
// the restored snapshot before the run continues, so callers can load
// the observers' state taken with it.
func (m *Machine) RunFrom(snaps []*Snapshot, restored func(i int)) (Result, error) {
	w, off := m.powerSrc.NextWindow()
	i := len(snaps) - 1
	for ; i >= 0; i-- {
		st := &snaps[i].st
		if st.cycles-st.winStart <= w && st.cycles <= m.maxCycles {
			break
		}
	}
	if i >= 0 {
		if err := m.restore(snaps[i]); err != nil {
			return Result{}, err
		}
		if restored != nil {
			restored(i)
		}
	} else {
		m.winStart = m.cycles
	}
	m.remaining, m.pendingOffMs = w-(m.cycles-m.winStart), off
	return m.run(i < 0)
}

// run is the run loop, entered inside the first window RunFrom drew;
// boot boots the runtime cold in it, else a restored machine continues.
func (m *Machine) run(boot bool) (Result, error) {
	cold := boot
	for first := true; !m.halted; first = false {
		if m.timedOut {
			return m.result(false, false, nil), nil
		}
		if m.failures > m.maxFailures || m.cycles > m.maxCycles {
			return m.result(false, true, nil), nil
		}
		if !first {
			m.remaining, m.pendingOffMs = m.powerSrc.NextWindow()
			m.winStart = m.cycles
		}
		failed, fault := m.runWindow(boot, cold)
		boot, cold = true, false
		if fault != nil {
			return m.result(false, false, fault), fault
		}
		if failed {
			m.failures++
			m.EmitEvent(obs.EvPowerFail, m.sinceCp, int64(m.failures))
			if m.rec != nil {
				m.rec.OnPowerFail()
			}
			m.offMs += m.pendingOffMs
			m.estMs += m.clock.OffEstimate(m.pendingOffMs)
			m.Regs = Registers{}
			m.CpDisable = 0
			m.ExpiryArmed = false
			// The working send-sequence counter is volatile; its committed
			// shadow survives, so replayed sends reuse their numbers.
			m.sendSeq = m.sendSeqCommitted
			// Pending/in-flight interrupts are volatile: the paper's
			// semantics are that an incomplete ISR never happened.
			m.inISR = false
			if m.irqPeriodMs > 0 {
				m.nextIrqMs = m.onMs + m.irqPeriodMs
			}
		}
	}
	return m.result(true, false, nil), nil
}

// runWindow executes in the window drawn for it until Halt, fault, or
// power failure. boot boots the runtime first (cold for a fresh
// device's first boot); without it a restored machine continues.
func (m *Machine) runWindow(boot, cold bool) (failed bool, fault error) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case powerFailure:
			failed = true
		case machineFault:
			fault = r.err
		case mem.RangeError:
			// An access outside the address space (a runtime reading the old
			// value at a wild address, say) is a program fault, not a host
			// crash.
			fault = r
		default:
			panic(r)
		}
		if m.inRun {
			if m.windowed {
				m.countWindow(true)
			}
			m.endRun()
		}
	}()
	if boot {
		if cold {
			m.EmitEvent(obs.EvBoot, 1, 0)
		} else {
			m.EmitEvent(obs.EvBoot, 0, 0)
		}
		m.PushCat(obs.CatRestore)
		m.rt.Boot(m, cold)
		m.PopCat()
		m.resetRecStack()
	}
	for !m.halted {
		if d := m.instrAt(m.Regs.PC); d == nil || d.run == 0 || !m.tryRun(d) {
			m.step(d)
		}
		if m.cycles > m.cycleLimit && m.pastLimit() {
			return // watchdog; Run turns this into starvation
		}
		if m.maxWallMs > 0 && m.TrueNowMs() >= m.maxWallMs {
			m.timedOut = true
			return
		}
	}
	return
}

// SetBoundaryHook arranges for fn to run at the first instruction
// boundary at which the cycle counter exceeds at, and then at the first
// boundary past each cycle count fn returns (math.MaxInt64: never
// again). Between instructions is where Snapshot takes a state RunFrom can
// continue from. fn is not called on a halted machine, once the wall
// budget has run out, or — for the rest of the run — once anything has
// read Remaining(): a continuous run's window is not the window a
// restored machine gets, so state that depended on it cannot be shared. The hook
// adds no per-instruction work: its trigger is folded into the
// watchdog's cycle compare. Reset removes it.
func (m *Machine) SetBoundaryHook(at int64, fn func(*Machine) int64) {
	if fn == nil {
		at = math.MaxInt64
	}
	m.onBoundary, m.cycleLimit = fn, min(m.maxCycles, at)
}

// pastLimit runs after an instruction that took the cycle counter past
// cycleLimit: it reports the watchdog firing, or calls the boundary hook
// and arms the next one.
func (m *Machine) pastLimit() bool {
	if m.cycles > m.maxCycles {
		return true
	}
	next := int64(math.MaxInt64)
	if !m.remainingRead && !m.halted && !(m.maxWallMs > 0 && m.TrueNowMs() >= m.maxWallMs) {
		next = m.onBoundary(m)
	}
	m.SetBoundaryHook(next, m.onBoundary)
	return false
}

// wallMargin widens the wall-deadline test tryRun makes before a run. A
// run adds at most 255 per-instruction times to the on-time, each add
// rounding by at most half an ulp, and the test's own sum rounds too: all
// of it stays below 2⁻³⁰ of the total, so a run the widened test admits
// cannot reach the deadline under any rounding.
const wallMargin = 1 + 0x1p-30

// tryRun executes the straight-line run at d, if it fits, as step
// would, instruction by instruction, and reports whether it did. It fits
// when none of the checks single-stepping makes between instructions can
// fire inside it, bar the expiry check it keeps: the power window covers
// it, it stays within the watchdog and boundary-hook limit, it cannot
// reach a timer checkpoint or the wall deadline, and no ISR or interrupt
// timer needs watching. Each test is on the run's total: every quantity
// it bounds moves one way inside a run, so a total within bounds keeps
// every prefix within them.
//
// A run drops the fetch check, the limit compares and the post-step
// checks, but each instruction still charges its class price before it
// executes, with its own float adds to the on-time and the clock,
// so a store observer reads the clock and cycle count single-stepping
// would show, and a fault leaves the same state; the recorder takes the
// run's cycles in one charge (endRun). An armed expiry is checked after
// each instruction as step checks it, and its firing ends the run there.
//
// A run of two or more instructions whose stack window lies in the stack
// region, inside one page that is already private, runs in runWindowed;
// the others run here, every stack word through Push and Pop.
func (m *Machine) tryRun(d *decodedInstr) bool {
	n, mems := int64(d.run), int64(d.runMem)
	sum := mems*classCost[isa.ClassMem] + (n-mems)*classCost[isa.ClassALU]
	if m.remaining < sum || m.cycles+sum > m.cycleLimit ||
		m.autoCpCycles > 0 && !m.CpDisabled() && m.sinceCp+sum >= m.autoCpCycles ||
		m.inISR || m.irqPeriodMs > 0 ||
		m.maxWallMs > 0 && (m.TrueNowMs()+float64(sum)*(1.0/energy.CyclesPerMs))*wallMargin >= m.maxWallMs {
		return false
	}
	m.inRun, m.runStart = true, m.cycles
	if n > 1 {
		if w := m.windows[m.Regs.PC-m.textBase]; w.lo < w.hi {
			lo, hi := int64(m.Regs.SP)+int64(w.lo), int64(m.Regs.SP)+int64(w.hi)
			if lo >= int64(m.Img.StackBase) && hi <= int64(m.Img.StackBase)+int64(m.Img.StackLen) && lo>>mem.PageShift == (hi-1)>>mem.PageShift {
				if p := m.Mem.PrivatePage(uint32(lo >> mem.PageShift)); p != nil {
					m.runWindowed(d, n, w, p, uint32(lo)&^(mem.PageSize-1))
					return true
				}
			}
		}
	}
	for ; ; n-- {
		c, ms := classCost[d.class], classMs[d.class]
		m.remaining -= c
		m.cycles += c
		m.sinceCp += c
		m.onMs += ms
		m.estMs += ms
		m.exec(d.in)
		m.Regs.PC = d.next
		if m.expired() {
			m.endRun()
			m.fireExpiry()
			return true
		}
		if n == 1 {
			break
		}
		d = &m.decoded[d.next-m.textBase]
	}
	m.endRun()
	return true
}

// runWindowed executes the n-instruction run at d as tryRun's loop
// would, with every push and pop made on p, the private page at base
// that holds the run's stack window w: the window lies in the stack
// region, so no push overflows and no pop underflows, and the page is
// the one the memory itself reads and writes, so the loads and stores
// through computed addresses, which keep ReadWord and WriteWord, see the
// same bytes. A pop or push whose bytes are already in place (Drop, the
// lower word of Dup) leaves p alone. SP lives in a local and reaches the
// register file before every call that can fault or observe the machine,
// with the pops made so far, and after the run. The stack words count
// once, w's totals at the end, or the words of the instructions run so
// far where an expiry or a fault ends the run early (countWindow).
//
// The page must be private even for a run that only reads the stack: a
// raw store inside the run to a shared page would materialize it, and p
// would then be the stale shared copy.
func (m *Machine) runWindowed(d *decodedInstr, n int64, w stackWindow, p []byte, base uint32) {
	m.windowed, m.runPC = true, m.Regs.PC
	decoded, textBase := m.decoded, m.textBase
	sp := m.Regs.SP - base // SP's offset in p
	for ; ; n-- {
		c, ms := classCost[d.class&3], classMs[d.class&3]
		m.remaining -= c
		m.cycles += c
		m.sinceCp += c
		m.onMs += ms
		m.estMs += ms
		switch in := d.in; in.Op {
		case isa.Nop:
		case isa.PushI:
			sp -= 4
			le.PutUint32(p[sp:], uint32(in.Imm))
		case isa.Dup:
			v := le.Uint32(p[sp:])
			sp -= 4
			le.PutUint32(p[sp:], v)
		case isa.Drop:
			sp += 4
		case isa.Swap:
			a, b := le.Uint32(p[sp:]), le.Uint32(p[sp+4:])
			le.PutUint32(p[sp:], b)
			le.PutUint32(p[sp+4:], a)
		case isa.LoadG, isa.LoadGB, isa.LoadL:
			m.Regs.SP = base + sp
			var v uint32
			switch in.Op {
			case isa.LoadG:
				v = m.Mem.ReadWord(uint32(in.Imm))
			case isa.LoadGB:
				v = uint32(m.Mem.ReadByteAt(uint32(in.Imm)))
			default:
				v = m.Mem.ReadWord(uint32(int32(m.Regs.FP) + in.Imm))
			}
			sp -= 4
			le.PutUint32(p[sp:], v)
		case isa.AddrL:
			sp -= 4
			le.PutUint32(p[sp:], uint32(int32(m.Regs.FP)+in.Imm))
		case isa.GetRV:
			sp -= 4
			le.PutUint32(p[sp:], m.Regs.RV)
		case isa.SetRV:
			m.Regs.RV = le.Uint32(p[sp:])
			sp += 4
		case isa.StoreG, isa.StoreGB, isa.StoreL:
			v := le.Uint32(p[sp:])
			sp += 4
			m.Regs.SP = base + sp
			addr, size := uint32(in.Imm), 4
			if in.Op == isa.StoreL {
				addr = uint32(int32(m.Regs.FP) + in.Imm)
			} else if in.Op == isa.StoreGB {
				size = 1
			}
			m.RawStore(addr, size, v)
		case isa.LoadI, isa.LoadIB:
			addr := le.Uint32(p[sp:])
			m.Regs.SP = base + sp + 4
			var v uint32
			if in.Op == isa.LoadI {
				v = m.Mem.ReadWord(addr)
			} else {
				v = uint32(m.Mem.ReadByteAt(addr))
			}
			le.PutUint32(p[sp:], v)
		case isa.StoreI, isa.StoreIB:
			v, addr := le.Uint32(p[sp:]), le.Uint32(p[sp+4:])
			sp += 8
			m.Regs.SP = base + sp
			size := 4
			if in.Op == isa.StoreIB {
				size = 1
			}
			m.RawStore(addr, size, v)
		case isa.Neg, isa.Not, isa.LNot:
			v, _ := isa.Eval(in.Op, le.Uint32(p[sp:]), 0)
			le.PutUint32(p[sp:], v)
		case isa.AddSP:
			sp += uint32(in.Imm)
		default: // the two-operand ALU and compare ops
			v, ok := isa.Eval(in.Op, le.Uint32(p[sp+4:]), le.Uint32(p[sp:]))
			if !ok {
				m.Regs.SP = base + sp + 8
				m.zeroDivisor(in.Op)
			}
			sp += 4
			le.PutUint32(p[sp:], v)
		}
		m.Regs.PC = d.next
		if m.expired() {
			m.Regs.SP = base + sp
			m.countWindow(false)
			m.endRun()
			m.fireExpiry()
			return
		}
		if n == 1 {
			break
		}
		d = &decoded[d.next-textBase]
	}
	m.Regs.SP = base + sp
	m.windowed = false
	m.Mem.CountWords(uint64(w.reads), uint64(w.writes))
	m.endRun()
}

// countWindow counts the stack words of a windowed run that ends before
// its last instruction: those of the instructions from runPC up to PC,
// and, when the instruction at PC faulted, its pops, which every
// instruction that can fault inside a window makes before it faults
// (its pushes come after).
func (m *Machine) countWindow(faulted bool) {
	m.windowed = false
	var reads, writes uint64
	for pc := m.runPC; pc != m.Regs.PC; {
		d := &m.decoded[pc-m.textBase]
		pops, pushes := isa.StackEffect(d.in.Op)
		reads, writes = reads+uint64(pops), writes+uint64(pushes)
		pc = d.next
	}
	if faulted {
		pops, _ := isa.StackEffect(m.decoded[m.Regs.PC-m.textBase].in.Op)
		reads += uint64(pops)
	}
	m.Mem.CountWords(reads, writes)
}

// le is the byte order of a word in memory.
var le = binary.LittleEndian

// endRun closes a run, charging the recorder the cycles it spent.
func (m *Machine) endRun() {
	m.inRun = false
	if m.rec != nil {
		m.rec.OnSpend(m.cycles - m.runStart)
	}
}

// step executes the instruction at d, the slot for the current PC (nil
// when PC is not an instruction boundary), then makes the checks a timer
// checkpoint, an expiry or an interrupt needs.
func (m *Machine) step(d *decodedInstr) {
	if d == nil {
		m.Fault("PC=%#x is not an instruction boundary", m.Regs.PC)
	}
	in := d.in
	m.charge(classCost[d.class], classMs[d.class])
	next := d.next
	if m.preStorer != nil {
		switch in.Op {
		case isa.StoreGL, isa.StoreGBL, isa.StoreIL, isa.StoreIBL, isa.Mark, isa.SetTS:
			m.preStorer.PreStore(m)
		}
	}
	switch in.Op {
	case isa.Halt:
		m.halted = true
	case isa.StoreGL:
		m.rt.LoggedStore(m, uint32(in.Imm), 4, m.Pop())
	case isa.StoreGBL:
		m.rt.LoggedStore(m, uint32(in.Imm), 1, m.Pop())
	case isa.StoreIL:
		v := m.Pop()
		m.rt.LoggedStore(m, m.Pop(), 4, v)
	case isa.StoreIBL:
		v := m.Pop()
		m.rt.LoggedStore(m, m.Pop(), 1, v)
	case isa.Jmp:
		next = uint32(in.Imm)
	case isa.Jz:
		if m.Pop() == 0 {
			next = uint32(in.Imm)
		}
	case isa.Jnz:
		if m.Pop() != 0 {
			next = uint32(in.Imm)
		}
	case isa.Call:
		m.Push(next)
		next = uint32(in.Imm)
	case isa.Enter:
		// Advance PC first: a checkpoint taken by a stack grow must resume
		// *after* the prologue, with the new frame already set up.
		m.Regs.PC = next
		if m.rec != nil {
			// Push before the runtime prologue so grow/checkpoint cycles
			// land on the callee in the folded stacks.
			m.rec.EnterFunc(int(in.Imm))
		}
		if m.framer != nil {
			m.framer.Enter(m, int(in.Imm))
		} else {
			m.enter(int(in.Imm))
		}
	case isa.Leave:
		if m.framer != nil {
			m.framer.Leave(m)
		} else {
			m.leave()
		}
		if m.rec != nil {
			m.rec.LeaveFunc()
		}
		next = m.Regs.PC // Leave sets PC to the return address
	case isa.Sense:
		m.Spend(energy.SenseExtra)
		m.sensed = true
		var v int32
		if m.sensors != nil {
			v = m.sensors.Sense(in.Imm, m.TrueNowMs())
		}
		m.Push(uint32(v))
	case isa.Send:
		now, est := m.TrueNowMs(), m.Now()
		rec := SendRec{Value: int32(m.Pop()), TrueMs: now, EstMs: est,
			EmitTrueMs: now, EmitEstMs: est, Seq: m.sendSeq, PC: m.Regs.PC}
		m.sendSeq++
		virt := int64(0)
		if m.virtualizeSends {
			virt = 1
		}
		m.EmitEvent(obs.EvSend, int64(rec.Value), virt)
		if m.virtualizeSends {
			// Virtualized I/O: pay the radio cost now, but hold the packet
			// in the commit queue — it transmits atomically with the next
			// commit point, so committed sends go out exactly once and
			// rolled-back sends never leave the device.
			m.Spend(energy.SendExtra)
			m.sendPending = append(m.sendPending, rec)
		} else {
			m.Spend(energy.SendExtra)
			m.SendLog = append(m.SendLog, rec)
			if m.OnSend != nil {
				m.OnSend(rec)
			}
		}
	case isa.Out:
		m.outPending = append(m.outPending, outEntry{ch: in.Imm, val: int32(m.Pop())})
	case isa.Mark:
		addr := m.Img.MarkBase + uint32(4*in.Imm)
		v := m.Mem.ReadWord(addr)
		m.rt.LoggedStore(m, addr, 4, v+1)
		if m.OnMark != nil {
			m.OnMark(in.Imm, m.Now())
		}
	case isa.Now:
		m.Spend(energy.TimeRead)
		m.Push(uint32(int32(m.Now())))
	case isa.Chkpt:
		// Advance PC first so the checkpoint resumes after this
		// instruction instead of re-taking it forever.
		m.Regs.PC = next
		m.rt.Checkpoint(m, CpManual)
	case isa.CpDis:
		m.CpDisable++
	case isa.CpEn:
		if m.CpDisable > 0 {
			m.CpDisable--
		}
	case isa.SetTS:
		m.Spend(energy.TimestampWrite)
		addr := m.Pop()
		m.rt.LoggedStore(m, addr, 4, uint32(int32(m.Now())))
	case isa.ExpBegin, isa.ExpCatch:
		m.Spend(energy.TimeRead)
		dur := int64(int32(m.Pop()))
		tsAddr := m.Pop()
		ts := int64(m.Mem.ReadInt(tsAddr))
		now := m.Now()
		if now-ts > dur {
			next = uint32(in.Imm)
		} else if in.Op == isa.ExpCatch {
			m.ExpiryArmed = true
			m.ExpiryDeadline = ts + dur
			m.ExpiryCatchPC = uint32(in.Imm)
		}
	case isa.ExpEnd:
		m.ExpiryArmed = false
	case isa.Timely:
		m.Spend(energy.TimeRead)
		deadline := int64(int32(m.Pop()))
		if m.Now() >= deadline {
			next = uint32(in.Imm)
		}
	case isa.TransTo:
		if m.trans == nil {
			m.Fault("transition_to(%d): %s is not a task runtime", in.Imm, m.rt.Name())
		}
		m.trans.Transition(m, in.Imm)
		m.EmitEvent(obs.EvTaskCommit, int64(in.Imm), 0)
		m.resetRecStack() // a fresh task stack replaces the old frames
		next = m.Regs.PC  // transitions jump to the next task's entry
	default:
		m.exec(in)
	}
	m.Regs.PC = next
	// Timer-driven automatic checkpoints.
	if m.autoCpCycles > 0 && !m.CpDisabled() && m.sinceCp >= m.autoCpCycles && !m.halted {
		m.rt.Checkpoint(m, CpTimer)
	}
	if m.expired() {
		m.fireExpiry()
	}
	// ISR return: the Leave above brought PC/SP back to the interrupted
	// point.
	if m.inISR && m.Regs.PC == m.isrRetPC && m.Regs.SP == m.isrRetSP {
		m.inISR = false
		m.EmitEvent(obs.EvISRExit, m.irqCount, 0)
		if m.irq != nil {
			m.irq.OnInterruptReturn(m)
		}
	}
	// Periodic timer interrupt. Delivery waits out ISRs already running
	// and atomic time-annotation regions (the runtime masks interrupts
	// there, as real TICS must to keep the blocks' restore semantics).
	if m.irqPeriodMs > 0 && m.onMs >= m.nextIrqMs && !m.inISR && !m.CpDisabled() && !m.halted {
		m.nextIrqMs = m.onMs + m.irqPeriodMs
		m.inISR = true
		m.isrRetPC = m.Regs.PC
		m.isrRetSP = m.Regs.SP
		m.irqCount++
		m.EmitEvent(obs.EvISREnter, m.irqCount, 0)
		if m.irq != nil {
			m.irq.OnInterrupt(m, m.irqEntry)
		} else {
			m.Push(m.Regs.PC) // call-like transfer into the ISR
			m.Regs.PC = m.irqEntry
		}
	}
}

// exec executes a straight-line instruction (see straightLine) for step
// and tryRun; any other opcode reaching it is unimplemented.
func (m *Machine) exec(in isa.Instr) {
	switch in.Op {
	case isa.Nop:
	case isa.PushI:
		m.Push(uint32(in.Imm))
	case isa.Dup:
		v := m.Pop()
		m.Push(v)
		m.Push(v)
	case isa.Drop:
		m.Pop()
	case isa.Swap:
		a := m.Pop()
		b := m.Pop()
		m.Push(a)
		m.Push(b)
	case isa.LoadG:
		m.Push(m.Mem.ReadWord(uint32(in.Imm)))
	case isa.StoreG:
		m.RawStore(uint32(in.Imm), 4, m.Pop())
	case isa.LoadGB:
		m.Push(uint32(m.Mem.ReadByteAt(uint32(in.Imm))))
	case isa.StoreGB:
		m.RawStore(uint32(in.Imm), 1, m.Pop())
	case isa.LoadL:
		m.Push(m.Mem.ReadWord(uint32(int32(m.Regs.FP) + in.Imm)))
	case isa.StoreL:
		m.RawStore(uint32(int32(m.Regs.FP)+in.Imm), 4, m.Pop())
	case isa.AddrL:
		m.Push(uint32(int32(m.Regs.FP) + in.Imm))
	case isa.LoadI:
		m.Push(m.Mem.ReadWord(m.Pop()))
	case isa.StoreI:
		v := m.Pop()
		m.RawStore(m.Pop(), 4, v)
	case isa.LoadIB:
		m.Push(uint32(m.Mem.ReadByteAt(m.Pop())))
	case isa.StoreIB:
		v := m.Pop()
		m.RawStore(m.Pop(), 1, v)
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
		isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
		m.binary(in.Op)
	case isa.Neg, isa.Not, isa.LNot:
		m.unary(in.Op)
	case isa.SetRV:
		m.Regs.RV = m.Pop()
	case isa.GetRV:
		m.Push(m.Regs.RV)
	case isa.AddSP:
		m.Regs.SP += uint32(in.Imm)
	default:
		m.Fault("unimplemented opcode %s", in.Op)
	}
}

// binary executes a two-operand ALU or compare op in place: it reads the
// right operand at SP and the left one above it, writes the result over
// the left one and raises SP one word, the same reads and writes at the
// same addresses as Pop, Pop, Push. Where a pop would underflow or the
// push overflow, it makes those three calls instead, so the fault and the
// registers are theirs; a zero divisor faults with both operands popped.
func (m *Machine) binary(op isa.Op) {
	sp := m.Regs.SP
	if sp+4 >= m.Img.StackBase+m.Img.StackLen || sp+4 < m.Img.StackBase {
		r := m.Pop()
		v, ok := isa.Eval(op, m.Pop(), r)
		if !ok {
			m.zeroDivisor(op)
		}
		m.Push(v)
		return
	}
	r := m.Mem.ReadWord(sp)
	v, ok := isa.Eval(op, m.Mem.ReadWord(sp+4), r)
	if !ok {
		m.Regs.SP = sp + 8
		m.zeroDivisor(op)
	}
	m.Regs.SP = sp + 4
	m.Mem.WriteWord(sp+4, v)
}

// unary executes a one-operand op in place, as Pop then Push would.
func (m *Machine) unary(op isa.Op) {
	sp := m.Regs.SP
	if sp >= m.Img.StackBase+m.Img.StackLen || sp < m.Img.StackBase {
		v, _ := isa.Eval(op, m.Pop(), 0)
		m.Push(v)
		return
	}
	v, _ := isa.Eval(op, m.Mem.ReadWord(sp), 0)
	m.Mem.WriteWord(sp, v)
}

// expired reports whether an armed data-expiration deadline
// (exception-based @expires/catch) has passed on the device clock.
func (m *Machine) expired() bool {
	return m.ExpiryArmed && m.Now() >= m.ExpiryDeadline
}

// fireExpiry disarms the passed deadline and hands control to the
// runtime's expiry handler.
func (m *Machine) fireExpiry() {
	m.ExpiryArmed = false
	m.EmitEvent(obs.EvExpiry, m.ExpiryDeadline, 0)
	m.PushCat(obs.CatRestore)
	if m.expirer != nil {
		m.expirer.OnExpiry(m)
	}
	m.PopCat()
	m.resetRecStack() // TICS restored to the block-entry checkpoint
}

// zeroDivisor faults the Div or Mod that isa.Eval refused: a zero
// divisor is the only way a binary ALU op fails. It stays out of line so
// the ALU case in step remains small.
func (m *Machine) zeroDivisor(op isa.Op) {
	if op == isa.Mod {
		m.Fault("modulo by zero")
	}
	m.Fault("division by zero")
}

func (m *Machine) result(completed, starved bool, fault error) Result {
	m.CommitObservables() // end of run: trailing output is committed
	res := Result{
		Completed:    completed,
		Starved:      starved,
		TimedOut:     m.timedOut,
		Fault:        fault,
		Cycles:       m.cycles,
		OnMs:         m.onMs,
		OffMs:        m.offMs,
		Failures:     m.failures,
		Restores:     m.restores,
		Interrupts:   m.irqCount,
		Checkpoints:  map[string]int64{},
		RuntimeStats: map[string]int64{},
		SendLog:      m.SendLog,
		OutLog:       m.OutLog,
		MemStats:     m.Mem.Stats(),
	}
	for k := CpKind(0); k < cpKindCount; k++ {
		if m.cpCounts[k] > 0 {
			res.Checkpoints[k.String()] = m.cpCounts[k]
		}
		res.TotalCheckpoints += m.cpCounts[k]
	}
	if res.TotalCheckpoints > 0 {
		res.RuntimeStats["checkpoints"] = res.TotalCheckpoints
	}
	for c, n := range m.counts {
		if n > 0 {
			res.RuntimeStats[runtimeCounterNames[c]] = n
		}
	}
	for i := 0; i < m.Img.MarkCount; i++ {
		res.MarkCounts = append(res.MarkCounts, int64(m.Mem.ReadInt(m.Img.MarkBase+uint32(4*i))))
	}
	return res
}

// ReadGlobal reads a named global's word value (test/experiment helper).
func (m *Machine) ReadGlobal(name string) (int32, error) {
	addr, ok := m.Img.GlobalAddr(name)
	if !ok {
		return 0, fmt.Errorf("vm: no global %q", name)
	}
	return m.Mem.ReadInt(addr), nil
}
