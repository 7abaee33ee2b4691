// Package energy defines the cycle/energy cost model shared by every
// runtime in the repository, and a small capacitor model used by the
// harvester power source.
//
// The machine runs at a nominal 1 MHz, so one cycle is one microsecond:
// the per-operation constants below are calibrated so that the TICS
// runtime-operation costs land near the paper's Table 4 (grow/shrink
// ~345 µs, checkpoint 264 µs + segment copy, logged pointer store ~308 µs
// versus 13 µs unlogged, rollback ~234 µs per entry). We do not claim
// cycle-exactness — the paper measured silicon, we charge a model — but
// the *ratios* that drive every comparison (logged vs raw stores, small
// vs large checkpoints, full-memory vs working-segment copies) hold.
package energy

// CyclesPerMs is the clock rate expressed as cycles per millisecond
// (1 MHz → 1000 cycles/ms).
const CyclesPerMs = 1000

// The calibrated per-operation cycle charges. The interpreter and every
// runtime charge these constants directly, so nothing can price an
// instruction or a checkpoint copy differently from a runtime charge;
// Default collects them into a CostModel for the static analyses.
const (
	// Base instruction costs.
	Instr      = 1    // ALU / stack manipulation
	InstrMem   = 4    // load/store (NV access)
	InstrCtl   = 3    // branch / call / return
	TrapBase   = 10   // entering any runtime service or peripheral trap
	SenseExtra = 400  // additional cycles for an ADC sample (warm-up and conversion)
	SendExtra  = 2000 // additional cycles for a radio send (milliseconds-scale energy)

	// NV copy costs used by checkpoint commits, undo logging, stack moves.
	NVWritePerWord = 3 // per 4-byte word written to FRAM
	NVReadPerWord  = 2 // per 4-byte word read from FRAM

	// TICS runtime operations (Table 4 calibration).
	CheckpointBase = 264 // register file + metadata + commit flag flip
	RestoreBase    = 273 // register reload + metadata on reboot
	StackGrow      = 345 // working-stack switch + argument copy overhead
	StackShrink    = 345 // working-stack switch back
	PtrCheck       = 13  // address-range check on an instrumented store
	UndoLogEntry   = 295 // write-ahead undo log append; + PtrCheck = 308, Table 4's "log 4 B"
	UndoRollback   = 234 // restoring one logged word on reboot
	TimestampWrite = 40  // shadow-timestamp update on a @= assignment
	TimeRead       = 25  // reading the persistent timekeeper
)

// CostModel holds the per-operation cycle charges as values, for code
// that prices programs rather than running them (ticsvet's bounds).
type CostModel struct {
	Instr, InstrMem, InstrCtl, TrapBase, SenseExtra, SendExtra int64
	NVWritePerWord, NVReadPerWord                              int64
	CheckpointBase, RestoreBase, StackGrow, StackShrink        int64
	PtrCheck, UndoLogEntry, UndoRollback, TimestampWrite       int64
	TimeRead                                                   int64
}

// Default returns the calibrated cost model: the constants above.
func Default() CostModel {
	return CostModel{
		Instr:          Instr,
		InstrMem:       InstrMem,
		InstrCtl:       InstrCtl,
		TrapBase:       TrapBase,
		SenseExtra:     SenseExtra,
		SendExtra:      SendExtra,
		NVWritePerWord: NVWritePerWord,
		NVReadPerWord:  NVReadPerWord,
		CheckpointBase: CheckpointBase,
		RestoreBase:    RestoreBase,
		StackGrow:      StackGrow,
		StackShrink:    StackShrink,
		PtrCheck:       PtrCheck,
		UndoLogEntry:   UndoLogEntry,
		UndoRollback:   UndoRollback,
		TimestampWrite: TimestampWrite,
		TimeRead:       TimeRead,
	}
}

// CheckpointCost returns the full cost of committing a checkpoint whose
// variable payload (the working-stack segment for TICS; the whole stack and
// globals for a naive system) is payloadBytes. The payload is copied twice
// (buffer, then commit) by a two-phase commit, hence the 2×.
func (c CostModel) CheckpointCost(payloadBytes int) int64 {
	words := int64((payloadBytes + 3) / 4)
	return c.CheckpointBase + 2*words*(c.NVReadPerWord+c.NVWritePerWord)
}

// RestoreCost returns the cost of restoring a checkpoint with the given
// payload size on reboot (single copy back).
func (c CostModel) RestoreCost(payloadBytes int) int64 {
	words := int64((payloadBytes + 3) / 4)
	return c.RestoreBase + words*(c.NVReadPerWord+c.NVWritePerWord)
}

// Capacitor models the small storage capacitor of a batteryless node.
// Energy is expressed in cycle-equivalents: one unit powers one CPU cycle.
type Capacitor struct {
	Capacity float64 // maximum stored energy (cycle-equivalents)
	OnLevel  float64 // device boots when the level reaches this
	OffLevel float64 // device browns out when the level falls to this
	level    float64
}

// NewCapacitor returns a capacitor with the given capacity; the device
// boots at 90% charge and browns out at 5%.
func NewCapacitor(capacity float64) *Capacitor {
	return &Capacitor{Capacity: capacity, OnLevel: 0.9 * capacity, OffLevel: 0.05 * capacity}
}

// Level returns the current stored energy.
func (c *Capacitor) Level() float64 { return c.level }

// Usable returns how many cycles can run before brown-out.
func (c *Capacitor) Usable() int64 {
	u := c.level - c.OffLevel
	if u < 0 {
		return 0
	}
	return int64(u)
}

// Drain removes energy for the given number of executed cycles.
func (c *Capacitor) Drain(cycles int64) {
	c.level -= float64(cycles)
	if c.level < 0 {
		c.level = 0
	}
}

// ChargeUntilOn charges at the given income rate (cycle-equivalents per
// millisecond) and returns how many milliseconds pass before the device
// can boot. A non-positive rate never boots; callers must guard.
func (c *Capacitor) ChargeUntilOn(ratePerMs float64) float64 {
	if c.level >= c.OnLevel {
		return 0
	}
	need := c.OnLevel - c.level
	ms := need / ratePerMs
	c.level = c.OnLevel
	return ms
}
