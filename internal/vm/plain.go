package vm

// Plain is the unprotected runtime: a conventional C runtime with no
// intermittency support. Under continuous power it is the correctness
// oracle every protected runtime is compared against. Under intermittent
// power it restarts main() from scratch at every reboot while non-volatile
// globals keep their last (possibly half-updated) values — the legacy-code
// failure mode that motivates the paper. It keeps every optional hook at
// the machine's default.
type Plain struct{}

var _ Runtime = (*Plain)(nil)

// NewPlain returns a fresh plain runtime.
func NewPlain() *Plain { return &Plain{} }

// Name implements Runtime.
func (p *Plain) Name() string { return "plain" }

// Boot implements Runtime: every boot — cold or not — starts over at the
// entry stub with an empty stack.
func (p *Plain) Boot(m *Machine, cold bool) {
	if !cold {
		m.Count(CtrRestarts)
	}
	m.Regs = EntryRegisters(m.Img)
}

// LoggedStore implements Runtime: no consistency discipline, just a store.
func (p *Plain) LoggedStore(m *Machine, addr uint32, size int, value uint32) {
	m.RawStore(addr, size, value)
}

// Checkpoint implements Runtime as a no-op: plain code has no checkpoints.
func (p *Plain) Checkpoint(m *Machine, kind CpKind) {}

// CloneInto implements Runtime: a plain runtime holds no state, so it is
// its own copy.
func (p *Plain) CloneInto(Runtime) Runtime { return p }

// CopyInto is CloneInto for a runtime whose whole state is its struct
// value: it copies *src into dst when dst is a runtime of src's type, and
// into a new one otherwise.
func CopyInto[T any, P interface {
	*T
	Runtime
}](src P, dst Runtime) P {
	c, ok := dst.(P)
	if !ok {
		c = new(T)
	}
	*c = *src
	return c
}
