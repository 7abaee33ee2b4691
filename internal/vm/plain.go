package vm

import "repro/internal/obs"

// Plain is the unprotected runtime: a conventional C runtime with no
// intermittency support. Under continuous power it is the correctness
// oracle every protected runtime is compared against. Under intermittent
// power it restarts main() from scratch at every reboot while non-volatile
// globals keep their last (possibly half-updated) values — the legacy-code
// failure mode that motivates the paper. It keeps every optional hook at
// the machine's default.
type Plain struct {
	reg *obs.Registry
}

var _ Runtime = (*Plain)(nil)

// NewPlain returns a fresh plain runtime.
func NewPlain() *Plain { return &Plain{reg: obs.NewRegistry()} }

// Name implements Runtime.
func (p *Plain) Name() string { return "plain" }

// Boot implements Runtime: every boot — cold or not — starts over at the
// entry stub with an empty stack.
func (p *Plain) Boot(m *Machine, cold bool) {
	if !cold {
		p.reg.Inc("restarts")
	}
	m.Regs = Registers{
		PC: m.Img.EntryPC,
		SP: m.Img.StackBase + m.Img.StackLen,
		FP: m.Img.StackBase + m.Img.StackLen,
	}
}

// LoggedStore implements Runtime: no consistency discipline, just a store.
func (p *Plain) LoggedStore(m *Machine, addr uint32, size int, value uint32) {
	m.RawStore(addr, size, value)
}

// Checkpoint implements Runtime as a no-op: plain code has no checkpoints.
func (p *Plain) Checkpoint(m *Machine, kind CpKind) {}

// Clone implements Runtime.
func (p *Plain) Clone() Runtime { return &Plain{reg: p.reg.Clone()} }

// Stats implements Runtime. The returned map is a defensive snapshot:
// mutating it cannot corrupt the live counters.
func (p *Plain) Stats() map[string]int64 { return p.reg.CounterSnapshot() }
