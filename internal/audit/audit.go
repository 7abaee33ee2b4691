// Package audit is the online trace auditor: an obs.Sink that watches a
// machine's event stream as it is emitted and mechanically checks the
// consistency guarantees the runtimes claim, the properties "Towards a
// Formal Foundation of Intermittent Computing" identifies as the ones
// intermittent systems silently violate.
//
// The auditor maintains a shadow model of committed non-volatile state:
// at every commit point (checkpoint commit, task-transition commit) it
// snapshots the data region — globals, BSS, mark counters, timestamp
// shadow slots; everything outside the volatile-by-convention stack —
// plus the register file, without charging simulated cycles (mem.Peek)
// and without perturbing the run. Against that shadow it checks:
//
//   - rollback exactness: after every restore, the data region and the
//     register file equal the state at the last commit. Divergence is
//     reported per address range with the store that caused it (the
//     auditor tracks the last writer of every audited byte).
//   - undo-log completeness: under an undo-logging runtime, every
//     program store outside the working segment must be covered by an
//     undo-append in the same epoch before it executes.
//   - checkpoint atomicity: a power failure between checkpoint-begin and
//     checkpoint-commit leaves a torn buffer; the next restore must come
//     from the last *committed* checkpoint, never the torn one.
//   - time consistency: once an @expires deadline passes (the expiry
//     event fires), no send may happen until the runtime has restored to
//     the handler — consuming expired data is the violation TICS's
//     restore-to-block-entry exists to prevent.
//
// Under the same commit rule it keeps a freshness record (when each
// global's value was produced from a fresh source) and reports the age
// of every committed send's sources (SendAges) for a caller with a
// budget (internal/mc) to judge.
//
// A correct runtime (TICS) passes every check under every power model; a
// runtime with a weaker discipline (Mementos without versioned globals,
// a runtime with an injected log-skip fault) is flagged with the
// offending address and event index. That is the paper's Table 1 story,
// machine-checked on every run.
package audit

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Check names a property the auditor verifies.
type Check string

const (
	CheckRollback  Check = "rollback-exactness"
	CheckUndoLog   Check = "undo-completeness"
	CheckAtomicity Check = "checkpoint-atomicity"
	CheckTime      Check = "time-consistency"
	CheckRegisters Check = "register-exactness"
)

// Violation is one detected invariant breach, anchored to the event
// stream by EventSeq (the ordinal of the event being processed when the
// breach was found — for an injected undo-log fault this is the index of
// the first event proving the miss).
type Violation struct {
	Check     Check
	EventSeq  int64 // ordinal in the run's full event stream
	Cycles    int64 // machine cycle counter at detection
	Addr      uint32
	Want, Got uint32
	WriterSeq int64 // seq of the last event before the offending store (-1: unknown)
	Detail    string
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s at event %d (cycle %d)", v.Check, v.EventSeq, v.Cycles)
	if v.Addr != 0 || v.Check == CheckRollback || v.Check == CheckUndoLog {
		s += fmt.Sprintf(" addr=%#06x", v.Addr)
	}
	if v.Want != v.Got {
		s += fmt.Sprintf(" want=%#x got=%#x", v.Want, v.Got)
	}
	if v.WriterSeq >= 0 {
		s += fmt.Sprintf(" last-writer-after-event=%d", v.WriterSeq)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// maxViolations bounds the recorded violation list; further violations
// are counted (Total) but not stored.
const maxViolations = 64

// Options configures an Auditor.
type Options struct {
	// FailFast halts the machine on the first violation, so the run stops
	// at the earliest evidence instead of accumulating follow-on noise.
	FailFast bool
	// CheckTime forces the time-consistency check on or off. Nil enables
	// it (the default): any runtime that sends data whose @expires
	// deadline passed without handling the expiry is flagged. Harnesses
	// comparing against baselines that make no timeliness claim at all
	// (Mementos, Chinchilla — the paper's Table 1) set this false to
	// measure their performance without tripping on the known violation.
	CheckTime *bool
}

type writeRec struct {
	seq   int64  // events emitted before the store executed
	epoch uint32 // epoch of the store; the record is live only in it
	val   byte
}

// Auditor watches one machine's run. Attach it before Run; afterwards,
// Violations/Err/Summary report what it saw.
type Auditor struct {
	m   *vm.Machine
	opt Options

	base, end uint32 // audited data region [base, end)

	shadow     []byte // data region at the last commit
	cur        []byte // scratch for the comparison
	shadowRegs vm.Registers
	haveShadow bool
	// regsValid: the last commit captured registers (a checkpoint). Task
	// commits recover control by re-entering the task, not by a register
	// file restore, so the register-exactness check does not apply.
	regsValid bool
	commitSeq int64

	undoCheck bool
	timeCheck bool
	// Per-byte epoch state over [base, end), indexed by addr-base. An
	// entry counts only while its stamp equals epoch, so closing an
	// epoch (a commit or a restore) is one increment, not a clear.
	epoch      uint32
	covered    []uint32   // epoch in which an undo append last covered the byte
	lastWriter []writeRec // last store into each audited byte

	cpOpen      bool
	cpBeginSeq  int64
	cpBeginRegs vm.Registers
	torn        *vm.Registers // begin-state of a checkpoint a failure tore
	tornSeq     int64

	expiryPending  bool
	expirySeq      int64
	expiryDeadline int64

	// Freshness record, indexed like prov.globals: when each global's
	// current value was produced (a global never written reads 0, its
	// boot-time initial value), and that table at the last commit.
	prov                *provenance
	prod, prodCommitted []int64
	sendAges            []SendAge

	seq        int64 // events seen so far (== seq of the next event)
	total      int64 // violations detected (including unrecorded ones)
	violations []Violation
	tripped    bool // FailFast fired; stop checking
}

// Attach builds an auditor for m and subscribes it to the machine's
// recorder and store stream. The machine must have a recorder attached.
func Attach(m *vm.Machine, opt Options) (*Auditor, error) {
	a := &Auditor{}
	if err := a.Reattach(m, opt); err != nil {
		return nil, err
	}
	return a, nil
}

// Reattach makes a the auditor of a new run on m, exactly as Attach
// would, but reuses a's buffers when the audited region has the same
// size. A pooled machine that is Reset between runs (dropping its store
// observers, its recorder having been Reset too) keeps one auditor this
// way instead of allocating per-byte state per run.
func (a *Auditor) Reattach(m *vm.Machine, opt Options) error {
	rec := m.Recorder()
	if rec == nil {
		return errors.New("audit: machine has no recorder attached (the auditor is an event-stream sink)")
	}
	if rec.Seq() != 0 {
		return errors.New("audit: recorder already carries events; attach the auditor before Run")
	}
	prov := a.prov
	if a.m == nil || a.m.Img != m.Img {
		prov = newProvenance(m.Img)
	}
	n := int(m.Img.StackBase - m.Img.GlobalsBase)
	if len(a.shadow) != n {
		a.shadow, a.cur = make([]byte, n), make([]byte, n)
		a.covered, a.lastWriter = make([]uint32, n), make([]writeRec, n)
		a.epoch = 0
	}
	*a = Auditor{
		m:             m,
		opt:           opt,
		base:          m.Img.GlobalsBase,
		end:           m.Img.StackBase,
		shadow:        a.shadow,
		cur:           a.cur,
		epoch:         a.epoch,
		covered:       a.covered,
		lastWriter:    a.lastWriter,
		commitSeq:     -1,
		violations:    a.violations[:0],
		prov:          prov,
		prod:          append(a.prod[:0], make([]int64, len(prov.globals))...),
		prodCommitted: append(a.prodCommitted[:0], make([]int64, len(prov.globals))...),
		sendAges:      a.sendAges[:0],
	}
	a.closeEpoch()
	a.timeCheck = opt.CheckTime == nil || *opt.CheckTime
	// Undo completeness applies to exactly the runtimes that keep a
	// vm.UndoLog (tics-st is tics under another build); full-state
	// checkpointers (plain, mementos) store legitimately unlogged.
	switch m.Runtime().Name() {
	case "tics", "chinchilla", "alpaca", "ink", "mayfly":
		a.undoCheck = true
	}
	rec.AddSink(a)
	m.ObserveStores(a.onStore)
	m.OnSend = a.onSend
	return nil
}

// CopyFrom gives a the audit state of src — shadow, per-byte coverage and
// last writers, epoch, checkpoint and expiry tracking, freshness record
// and send ages, seq and the violations so far — keeping a's own
// machine. Both audit the same image with the same options, so they
// share its provenance index. Machine snapshots copy a run's auditor
// this way, into a spare and back; a is then subscribed wherever it
// already was.
func (a *Auditor) CopyFrom(src *Auditor) {
	m, shadow, cur, covered, lastWriter, violations := a.m, a.shadow, a.cur, a.covered, a.lastWriter, a.violations
	prod, prodCommitted, sendAges := a.prod, a.prodCommitted, a.sendAges
	*a = *src
	a.m, a.cur = m, cur // cur is comparison scratch
	a.shadow = append(shadow[:0], src.shadow...)
	a.covered = append(covered[:0], src.covered...)
	a.lastWriter = append(lastWriter[:0], src.lastWriter...)
	a.violations = append(violations[:0], src.violations...)
	a.prod = append(prod[:0], src.prod...)
	a.prodCommitted = append(prodCommitted[:0], src.prodCommitted...)
	a.sendAges = append(sendAges[:0], src.sendAges...)
	if src.torn != nil {
		torn := *src.torn
		a.torn = &torn
	}
}

// closeEpoch retires every covered and lastWriter entry at once.
func (a *Auditor) closeEpoch() {
	a.epoch++
	if a.epoch == 0 { // wrapped: clear the stamps so none aliases the new epoch
		clear(a.covered)
		clear(a.lastWriter)
		a.epoch = 1
	}
}

// Region returns the audited address interval [base, end).
func (a *Auditor) Region() (uint32, uint32) { return a.base, a.end }

func (a *Auditor) report(v Violation) {
	if a.tripped {
		return
	}
	a.total++
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
	if a.opt.FailFast {
		a.tripped = true
		a.m.Halt()
	}
}

// onStore observes every program-order store (vm.Machine.OnStore).
func (a *Auditor) onStore(addr uint32, size int, val uint32, deviceMs int64) {
	if a.tripped {
		return
	}
	o, n := overlap(addr, uint32(size), a.base, a.end)
	if n == 0 {
		return
	}
	a.produce(addr, deviceMs)
	off := o - a.base
	if a.undoCheck {
		for i := uint32(0); i < n; i++ {
			if a.covered[off+i] != a.epoch {
				a.report(Violation{
					Check:     CheckUndoLog,
					EventSeq:  a.seq,
					Cycles:    a.m.Cycles(),
					Addr:      addr,
					WriterSeq: a.seq - 1,
					Detail: fmt.Sprintf("store of %d B (value %#x) has no undo-log entry covering %#06x this epoch",
						size, val, o+i),
				})
				break
			}
		}
	}
	for i := uint32(0); i < n; i++ {
		a.lastWriter[off+i] = writeRec{seq: a.seq - 1, epoch: a.epoch, val: byte(val >> (8 * (o + i - addr)))}
	}
}

// srcSet is the provenance of one stored or sent value: the globals it
// was computed from, as indices into provenance.globals. known=false means
// the checker must not draw conclusions from this site; the zero srcSet,
// which every PC without a resolved site holds, is such a site.
type srcSet struct {
	known   bool
	globals []int
}

// provenance lays analysis.DataProvenance out for the per-store and
// per-send hooks, so they do no map or string work: owner maps each byte
// of the globals space to 1 + its global's index (0: no global), and
// sends and stores are dense tables indexed by pc - textBase, like the
// interpreter's decode table.
type provenance struct {
	globals  []cc.GlobalInfo
	dataBase uint32
	owner    []int32
	textBase uint32
	sends    []srcSet // Send PC -> payload sources
	stores   []srcSet // direct global-store PC -> value sources
}

func newProvenance(img *link.Image) *provenance {
	prog := img.Program
	p := &provenance{
		globals:  prog.Globals,
		dataBase: img.GlobalsBase,
		owner:    make([]int32, prog.GlobalsBytes()),
		textBase: img.TextBase,
		sends:    make([]srcSet, len(img.Text)),
		stores:   make([]srcSet, len(img.Text)),
	}
	for i, g := range prog.Globals {
		for b := g.Offset; b < g.Offset+uint32(g.Size); b++ {
			p.owner[b] = int32(i + 1)
		}
	}
	for _, s := range analysis.DataProvenance(prog) {
		table := p.stores
		if s.Send {
			table = p.sends
		}
		table[img.Funcs[s.Func].Entry+s.Off-p.textBase] = srcSet{known: s.Resolved, globals: s.Sources}
	}
	return p
}

// globalAt resolves an absolute address to the index of the global whose
// data range covers it (-1 for runtime state, shadow timestamp slots,
// the stack).
func (p *provenance) globalAt(addr uint32) int {
	if off := addr - p.dataBase; off < uint32(len(p.owner)) {
		return int(p.owner[off]) - 1
	}
	return -1
}

// at returns the table's record for pc; a pc outside the text reads as
// an unknown site.
func (p *provenance) at(table []srcSet, pc uint32) srcSet {
	if off := pc - p.textBase; off < uint32(len(table)) {
		return table[off]
	}
	return srcSet{}
}

// produce updates the freshness record for a store to addr at deviceMs.
// The program counter still points at the store instruction while its
// observer runs, which is what keys the provenance index.
func (a *Auditor) produce(addr uint32, deviceMs int64) {
	g := a.prov.globalAt(addr)
	if g < 0 {
		return
	}
	set := a.prov.at(a.prov.stores, a.m.Regs.PC)
	if !set.known || len(set.globals) == 0 {
		// Unknown provenance or a fresh expression: the store produces a
		// new value now.
		a.prod[g] = deviceMs
		return
	}
	// The stored value is as old as its oldest global source.
	prod := deviceMs
	for _, src := range set.globals {
		prod = min(prod, a.prod[src])
	}
	a.prod[g] = prod
}

// SendAge is one global source of one committed send's payload: the
// global, its @expires_after budget (-1 when unannotated), and how long
// before the send (EstMs) the global's value was produced.
type SendAge struct {
	vm.SendRec
	Global    string
	ExpiresMs int64
	AgeMs     int64
}

// onSend records the age of every global source of a committed send's
// payload (vm.Machine.OnSend). A send whose provenance is unknown
// records nothing: no conclusion may be drawn from it.
func (a *Auditor) onSend(rec vm.SendRec) {
	set := a.prov.at(a.prov.sends, rec.PC)
	if !set.known {
		return
	}
	for _, src := range set.globals {
		g := &a.prov.globals[src]
		a.sendAges = append(a.sendAges, SendAge{rec, g.Name, g.ExpiresAfterMs, rec.EstMs - a.prod[src]})
	}
}

// SendAges returns the sources of every committed send so far, in
// commit order. The slice is the auditor's own, valid until its next
// Reattach or CopyFrom.
func (a *Auditor) SendAges() []SendAge { return a.sendAges }

// OnEvent implements obs.Sink.
func (a *Auditor) OnEvent(seq int64, ev obs.Event) {
	a.seq = seq + 1
	if a.tripped {
		return
	}
	switch ev.Kind {
	case obs.EvCheckpointBegin:
		a.cpOpen = true
		a.cpBeginSeq = seq
		a.cpBeginRegs = a.m.Regs
	case obs.EvCheckpointCommit:
		a.snapshot(seq, true)
		a.cpOpen = false
		a.torn = nil
	case obs.EvTaskCommit:
		a.snapshot(seq, false)
		a.cpOpen = false
		a.torn = nil
	case obs.EvPowerFail:
		if a.cpOpen {
			r := a.cpBeginRegs
			a.torn = &r
			a.tornSeq = a.cpBeginSeq
			a.cpOpen = false
		}
	case obs.EvRestore:
		a.checkRestore(seq)
	case obs.EvUndoAppend:
		lo, n := overlap(uint32(ev.Arg0), uint32(ev.Arg1), a.base, a.end)
		off := lo - a.base
		for i := uint32(0); i < n; i++ {
			a.covered[off+i] = a.epoch
		}
	case obs.EvExpiry:
		a.expiryPending = true
		a.expirySeq = seq
		a.expiryDeadline = ev.Arg0
	case obs.EvSend:
		if !a.timeCheck {
			return
		}
		if a.expiryPending {
			a.report(Violation{
				Check:    CheckTime,
				EventSeq: seq,
				Cycles:   ev.Cycles,
				Detail: fmt.Sprintf("send of value %d after the @expires deadline (device ms %d) passed at event %d without a restore — expired data consumed",
					ev.Arg0, a.expiryDeadline, a.expirySeq),
			})
		} else if a.m.ExpiryArmed && ev.DeviceMs > a.m.ExpiryDeadline {
			a.report(Violation{
				Check:    CheckTime,
				EventSeq: seq,
				Cycles:   ev.Cycles,
				Detail: fmt.Sprintf("send at device ms %d with an armed @expires deadline %d already passed and no expiry event",
					ev.DeviceMs, a.m.ExpiryDeadline),
			})
		}
	}
}

// snapshot records the committed state the next restore must reproduce.
// regsKnown marks commits that capture the register file (checkpoints);
// task commits pass false.
func (a *Auditor) snapshot(seq int64, regsKnown bool) {
	a.m.Mem.Peek(a.base, a.shadow)
	copy(a.prodCommitted, a.prod)
	a.shadowRegs = a.m.Regs
	a.haveShadow = true
	a.regsValid = regsKnown
	a.commitSeq = seq
	// A commit closes the epoch: the undo log resets, and stores before
	// this point can no longer explain post-restore divergence.
	a.closeEpoch()
}

// checkRestore verifies rollback exactness, register exactness and
// checkpoint atomicity at an EvRestore (the runtime reports the restore
// complete: registers and memory are rebuilt).
func (a *Auditor) checkRestore(seq int64) {
	copy(a.prod, a.prodCommitted) // the runtime just reverted the values
	defer func() {
		a.closeEpoch()
		a.torn = nil
		a.cpOpen = false
		a.expiryPending = false
	}()
	if !a.haveShadow {
		return
	}
	if got := a.m.Regs; a.regsValid && got != a.shadowRegs {
		if a.torn != nil && got == *a.torn {
			a.report(Violation{
				Check:    CheckAtomicity,
				EventSeq: seq,
				Cycles:   a.m.Cycles(),
				Detail: fmt.Sprintf("restore resumed from the torn checkpoint begun at event %d (pc=%#x) instead of the commit at event %d (pc=%#x)",
					a.tornSeq, a.torn.PC, a.commitSeq, a.shadowRegs.PC),
			})
		} else {
			a.report(Violation{
				Check:    CheckRegisters,
				EventSeq: seq,
				Cycles:   a.m.Cycles(),
				Want:     a.shadowRegs.PC,
				Got:      got.PC,
				Detail: fmt.Sprintf("registers after restore {pc:%#x sp:%#x fp:%#x rv:%#x} != committed {pc:%#x sp:%#x fp:%#x rv:%#x} (commit at event %d)",
					got.PC, got.SP, got.FP, got.RV,
					a.shadowRegs.PC, a.shadowRegs.SP, a.shadowRegs.FP, a.shadowRegs.RV, a.commitSeq),
			})
		}
	}
	a.m.Mem.Peek(a.base, a.cur)
	reported := 0
	for i := 0; i < len(a.cur); {
		if a.cur[i] == a.shadow[i] {
			i++
			continue
		}
		// Group the divergence into a maximal contiguous range.
		j := i
		for j < len(a.cur) && a.cur[j] != a.shadow[j] {
			j++
		}
		if reported < 8 {
			addr := a.base + uint32(i)
			w := a.lastWriter[i]
			writerSeq := int64(-1)
			detail := fmt.Sprintf("%d byte(s) differ from the commit at event %d", j-i, a.commitSeq)
			if w.epoch == a.epoch {
				writerSeq = w.seq
				detail += fmt.Sprintf("; last store to %#06x (value byte %#02x) happened after event %d and was not rolled back",
					addr, w.val, w.seq)
			}
			a.report(Violation{
				Check:     CheckRollback,
				EventSeq:  seq,
				Cycles:    a.m.Cycles(),
				Addr:      addr,
				Want:      uint32(a.shadow[i]),
				Got:       uint32(a.cur[i]),
				WriterSeq: writerSeq,
				Detail:    detail,
			})
		}
		reported++
		i = j
	}
	if reported > 8 {
		a.report(Violation{
			Check:    CheckRollback,
			EventSeq: seq,
			Cycles:   a.m.Cycles(),
			Detail:   fmt.Sprintf("%d further divergent ranges suppressed", reported-8),
		})
	}
}

// Violations returns the recorded violations (at most maxViolations).
func (a *Auditor) Violations() []Violation {
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Total returns the number of violations detected, including any beyond
// the recording bound.
func (a *Auditor) Total() int64 { return a.total }

// Err returns nil when the run satisfied every audited invariant, and an
// error naming the first violation otherwise.
func (a *Auditor) Err() error {
	if a.total == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d violation(s); first: %s", a.total, a.violations[0])
}

// Summary renders a human-readable per-check tally plus the recorded
// violations.
func (a *Auditor) Summary() string {
	var b strings.Builder
	if a.total == 0 {
		fmt.Fprintf(&b, "audit: ok (%d events, region [%#06x,%#06x), undo-log check %s)\n",
			a.seq, a.base, a.end, onOff(a.undoCheck))
		return b.String()
	}
	counts := map[Check]int{}
	for _, v := range a.violations {
		counts[v.Check]++
	}
	fmt.Fprintf(&b, "audit: %d violation(s) in %d events\n", a.total, a.seq)
	for _, c := range []Check{CheckRollback, CheckUndoLog, CheckAtomicity, CheckTime, CheckRegisters} {
		if counts[c] > 0 {
			fmt.Fprintf(&b, "  %-22s %d\n", c, counts[c])
		}
	}
	for i, v := range a.violations {
		if i >= 16 {
			fmt.Fprintf(&b, "  ... (%d more recorded)\n", len(a.violations)-16)
			break
		}
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// overlap clips [addr, addr+n) to [base, end) and returns the clipped
// start and length.
func overlap(addr, n, base, end uint32) (uint32, uint32) {
	lo, hi := addr, addr+n
	if lo < base {
		lo = base
	}
	if hi > end {
		hi = end
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi - lo
}
