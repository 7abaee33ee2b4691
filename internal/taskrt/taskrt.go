// Package taskrt implements the task-based intermittent runtimes the paper
// compares TICS against: Alpaca, InK and MayFly. All three share the same
// execution model — the program is decomposed by hand into atomic,
// idempotent tasks; only the active task's writes are versioned; a task
// transition is the commit point — and differ in scheduling machinery and
// time semantics:
//
//   - Alpaca (OOPSLA'17): data privatization + static task transitions.
//   - InK (SenSys'18): a reactive kernel that schedules tasks through an
//     event queue, adding per-transition kernel cost.
//   - MayFly (SenSys'17): a *static task graph* with timing constraints on
//     edges; data tokens are timestamped, expired tokens reroute the flow
//     to a recovery task, and graph loops are rejected (which is why the
//     cuckoo-filter benchmark cannot be expressed, §5.3).
//
// Versioning uses a non-volatile write-ahead log committed (cleared) by a
// single atomic word that also switches the current task, so a power
// failure at any point either replays the whole task or none of it.
package taskrt

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/vm"
)

// Kind selects the runtime flavor.
type Kind int

const (
	Alpaca Kind = iota
	InK
	MayFly
)

func (k Kind) String() string {
	switch k {
	case Alpaca:
		return "alpaca"
	case InK:
		return "ink"
	case MayFly:
		return "mayfly"
	}
	return "?"
}

// TaskDone is the transition target that ends the program.
const TaskDone = 99

// Edge is a MayFly task-graph edge with an optional freshness constraint
// on the data token flowing across it.
type Edge struct {
	From, To  int
	ExpireMs  int64 // 0 = no constraint
	OnExpired int   // task to reroute to when the token is stale
}

// Config describes the task decomposition of a program.
type Config struct {
	Kind Kind
	// Tasks maps task ids to function names, in id order.
	Tasks []string
	// StartTask is the initial task (default 0).
	StartTask int
	// Edges declares the MayFly task graph (ignored by Alpaca/InK).
	Edges []Edge
	// UndoCapBytes sizes the privatization log (default 4096).
	UndoCapBytes int
	// StackBytes sizes the machine stack (default 1024).
	StackBytes int
}

func (c Config) withDefaults() Config {
	if c.UndoCapBytes == 0 {
		c.UndoCapBytes = 4096
	}
	if c.StackBytes == 0 {
		c.StackBytes = 1024
	}
	return c
}

// Per-kind modeled costs and footprints.
type kindProfile struct {
	transitionCycles int64 // commit + scheduling
	privatizeCycles  int64 // per versioned store
	textBytes        int
	dataBytes        int
}

var profiles = map[Kind]kindProfile{
	Alpaca: {transitionCycles: 140, privatizeCycles: 60, textBytes: 1900, dataBytes: 4400},
	InK:    {transitionCycles: 300, privatizeCycles: 65, textBytes: 2500, dataBytes: 4450},
	MayFly: {transitionCycles: 340, privatizeCycles: 70, textBytes: 2300, dataBytes: 4650},
}

const initMagic = 0x5441534B // "TASK"

// Spec returns the linker spec for a task-runtime build.
func Spec(cfg Config) link.RuntimeSpec {
	cfg = cfg.withDefaults()
	p := profiles[cfg.Kind]
	return link.RuntimeSpec{
		Name:           cfg.Kind.String(),
		RuntimeBytes:   24 + cfg.UndoCapBytes + 4*len(cfg.Edges),
		StackBytes:     cfg.StackBytes,
		ExtraTextBytes: p.textBytes,
		ExtraDataBytes: p.dataBytes,
	}
}

// Validate checks a task configuration against the task model's static
// constraints: MayFly graphs must be acyclic (only the activation-restart
// edge back to the start task is allowed), and no task model supports
// recursion or pointers (Table 5). The build pipeline calls this before
// linking so porting errors surface at compile time, as they would with
// the real toolchains.
func Validate(cfg Config, hasRecursion, usesPointers bool) error {
	if hasRecursion {
		return fmt.Errorf("taskrt: %s: task-based models cannot support recursion (static task memory)", cfg.Kind)
	}
	if usesPointers {
		return fmt.Errorf("taskrt: %s: task-based models cannot support pointers (static data-flow channels)", cfg.Kind)
	}
	if cfg.Kind == MayFly {
		for _, e := range cfg.Edges {
			restart := e.To == cfg.StartTask && e.From > e.To
			if e.To <= e.From && !restart {
				return fmt.Errorf(
					"taskrt: mayfly task graphs must be acyclic: edge %d→%d forms a loop (only the activation-restart edge to task %d is allowed)",
					e.From, e.To, cfg.StartTask)
			}
		}
	}
	return nil
}

// Runtime is the shared task engine. Frames, interrupts and expirations
// keep the vm defaults: task frames are conventional, an interrupted task
// simply restarts (InK's event kernel would enqueue instead), and time is
// expressed on MayFly graph edges, not via @expires blocks.
type Runtime struct {
	cfg     Config
	profile kindProfile
	img     *link.Image
	entries []uint32 // task id → function entry address

	addrMagic uint32
	addrToken uint32 // MayFly per-edge token timestamps
	// log is the privatization log, tagged with the current task: one
	// header-word write clears it and switches tasks atomically.
	log vm.UndoLog

	cur int
}

var (
	_ vm.Runtime      = (*Runtime)(nil)
	_ vm.PreStorer    = (*Runtime)(nil)
	_ vm.Transitioner = (*Runtime)(nil)
)

// New builds a task runtime for an image linked with Spec(cfg). Every task
// name must resolve to a zero-argument function in the image. MayFly
// configurations reject cyclic graphs (backward edges other than the
// restart edge to the start task).
func New(img *link.Image, cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Tasks) == 0 {
		return nil, fmt.Errorf("taskrt: no tasks declared")
	}
	if len(cfg.Tasks) > 64 {
		return nil, fmt.Errorf("taskrt: too many tasks (%d)", len(cfg.Tasks))
	}
	if err := Validate(cfg, img.Program.HasRecursion, img.Program.UsesPointers); err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:     cfg,
		profile: profiles[cfg.Kind],
		img:     img,
	}
	for _, name := range cfg.Tasks {
		found := false
		for _, f := range img.Funcs {
			if f.Name == name {
				if f.NArgs != 0 {
					return nil, fmt.Errorf("taskrt: task %s takes arguments", name)
				}
				r.entries = append(r.entries, f.Entry)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("taskrt: task function %s not found in image", name)
		}
	}
	a := img.RuntimeBase
	r.addrMagic = a
	r.log = vm.NewUndoLog(a+4, a+24, cfg.UndoCapBytes, 4)
	a = r.log.End()
	r.addrToken = a
	a += uint32(4 * len(cfg.Edges))
	if a > img.RuntimeBase+img.RuntimeLen {
		return nil, fmt.Errorf("taskrt: runtime area too small: need %d B, have %d B", a-img.RuntimeBase, img.RuntimeLen)
	}
	return r, nil
}

// Name implements vm.Runtime.
func (r *Runtime) Name() string { return r.cfg.Kind.String() }

// Clone implements vm.Runtime.
func (r *Runtime) Clone() vm.Runtime {
	c := *r
	return &c
}

// haltPC is the Halt instruction in the boot stub — the dummy return
// address for task frames, so a task that returns without transitioning
// ends the program.
func (r *Runtime) haltPC() uint32 { return r.img.EntryPC + 5 }

// setupTask points the machine at the start of the current task with a
// fresh stack.
func (r *Runtime) setupTask(m *vm.Machine) {
	m.Regs = vm.EntryRegisters(r.img)
	m.Regs.PC = r.entries[r.cur]
	m.Push(r.haltPC())
}

// Boot implements vm.Runtime: roll back the active task's logged writes
// and restart it from its beginning (tasks are atomic and idempotent).
func (r *Runtime) Boot(m *vm.Machine, cold bool) {
	if cold || m.Mem.ReadWord(r.addrMagic) != initMagic {
		m.Spend(energy.RestoreBase)
		r.cur = r.cfg.StartTask
		r.log.Reset(m, uint32(r.cur))
		m.Mem.WriteWord(r.addrMagic, initMagic)
		r.setupTask(m)
		return
	}
	m.Spend(energy.RestoreBase)
	cur, n := r.log.Header(m)
	r.cur = int(cur)
	r.log.Rollback(m, n)
	m.Spend(energy.NVWritePerWord)
	r.log.Reset(m, cur)
	m.Count(vm.CtrTaskRestarts)
	m.NoteRestore()
	if r.cfg.Kind == MayFly {
		r.checkTokens(m)
	}
	r.setupTask(m)
}

// checkTokens enforces MayFly edge freshness on entry to the current task:
// a stale inbound token reroutes the flow to the edge's recovery task.
func (r *Runtime) checkTokens(m *vm.Machine) {
	now := m.Now()
	for i, e := range r.cfg.Edges {
		if e.To != r.cur || e.ExpireMs <= 0 {
			continue
		}
		m.Spend(energy.TimeRead)
		ts := int64(m.Mem.ReadInt(r.addrToken + uint32(4*i)))
		if now-ts > e.ExpireMs {
			m.Count(vm.CtrExpiredTokens)
			r.cur = e.OnExpired
			m.Spend(energy.NVWritePerWord)
			r.log.Reset(m, uint32(r.cur))
			return
		}
	}
}

// Transition implements vm.Transitioner: the commit point. A single word write
// clears the log and switches tasks atomically, then control jumps to the
// next task's entry with a fresh stack.
func (r *Runtime) Transition(m *vm.Machine, task int32) {
	m.Spend(r.profile.transitionCycles)
	if task == TaskDone {
		r.log.Reset(m, uint32(r.cfg.StartTask))
		m.Halt()
		return
	}
	if task < 0 || int(task) >= len(r.entries) {
		m.Fault("transition_to(%d): no such task", task)
	}
	if r.cfg.Kind == MayFly {
		// Stamp the token on the traversed edge before committing.
		for i, e := range r.cfg.Edges {
			if e.From == r.cur && e.To == int(task) {
				m.Spend(energy.TimestampWrite)
				m.Mem.WriteInt(r.addrToken+uint32(4*i), int32(m.Now()))
			}
		}
	}
	r.log.ObserveLen(m)
	r.cur = int(task)
	m.Spend(energy.NVWritePerWord)
	r.log.Reset(m, uint32(r.cur)) // atomic commit
	m.CommitObservables()
	m.Count(vm.CtrTransitions)
	if r.cfg.Kind == MayFly {
		r.checkTokens(m)
	}
	r.setupTask(m)
}

// PreStore implements vm.PreStorer: a task whose writes overflow the
// privatization buffer can never commit, so it faults before the store.
func (r *Runtime) PreStore(m *vm.Machine) {
	if r.log.Full() {
		m.Fault("%s: task writes exceed the privatization buffer (%d entries); split the task",
			r.cfg.Kind, r.log.Cap())
	}
}

// LoggedStore implements vm.Runtime: privatize-on-first-write, modeled as
// a write-ahead log entry cleared at the transition commit.
func (r *Runtime) LoggedStore(m *vm.Machine, addr uint32, size int, value uint32) {
	r.log.Append(m, addr, size, r.profile.privatizeCycles)
	m.RawStore(addr, size, value)
	m.Count(vm.CtrStoresVersioned)
}

// Checkpoint implements vm.Runtime: task systems have no checkpoints; the
// transition is the only commit point.
func (r *Runtime) Checkpoint(m *vm.Machine, kind vm.CpKind) {}
