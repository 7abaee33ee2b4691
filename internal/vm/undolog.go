package vm

import (
	"repro/internal/energy"
	"repro/internal/obs"
)

// UndoLog is the write-ahead undo log of the paper's memory-consistency
// guarantee (§3.1.2): before a logged store overwrites non-volatile data,
// the old bytes are appended to a log in the runtime area; a commit point
// clears the log and a reboot rolls it back newest-first. TICS and
// Chinchilla commit at checkpoints, the task runtimes (Alpaca's
// privatization buffer, InK, MayFly) at task transitions; all of them keep
// this one format.
//
// Layout in non-volatile memory:
//
//   - The header is one word, tag<<16 | len. The tag is the runtime's
//     commit identity (the checkpoint epoch, or the current task), so a
//     single-word write both commits an entry (len+1) and clears the log
//     under a new tag (len 0).
//   - Entry i sits at base + i*(8+payload) and holds [addr][size][old
//     bytes]. A size of 1 or 4 is a byte or word store; a larger size is a
//     whole block of old bytes (TICS UndoBlockBytes).
//
// The log's fields are volatile mirrors of that state: Reset and Append
// keep them in step with the header, and a runtime re-derives them at
// boot with Header and Reset. Appends and rollbacks charge cycles at the
// same points as real FRAM writes, so a power failure can land mid-append
// or mid-rollback; a rollback re-run from the same header is idempotent.
type UndoLog struct {
	hdr   uint32 // header word address
	base  uint32 // first entry
	entry uint32 // bytes per entry: addr, size, payload
	cap   int    // entries
	n     int    // committed entries (the header's len)
	tag   uint32 // the header's tag
}

// NewUndoLog lays out a log whose header word is at hdr and whose entries
// start at base, sized to capBytes of entries with payload bytes of old
// data each (4 for byte and word stores, the block size for block
// entries).
func NewUndoLog(hdr, base uint32, capBytes, payload int) UndoLog {
	entry := 8 + payload
	return UndoLog{hdr: hdr, base: base, entry: uint32(entry), cap: capBytes / entry}
}

// Len returns the number of committed entries.
func (l *UndoLog) Len() int { return l.n }

// Cap returns the log's capacity in entries.
func (l *UndoLog) Cap() int { return l.cap }

// Full reports whether the next Append would overflow.
func (l *UndoLog) Full() bool { return l.n >= l.cap }

// End returns the address one past the log's last entry slot, where the
// runtime area's next structure begins.
func (l *UndoLog) End() uint32 { return l.base + uint32(l.cap)*l.entry }

// ObserveLen records the log's length in the recorder's
// undo_len_per_epoch histogram (no-op without a recorder). Runtimes call
// it at each commit point, before the commit clears the log.
func (l *UndoLog) ObserveLen(m *Machine) {
	if m.rec != nil {
		m.rec.ObserveUndoLen(l.n)
	}
}

// Header reads the header word (one NV read) and returns its tag and
// entry count. A runtime calls it once per boot, then decides from the
// tag whether the entries belong to the state it restores.
func (l *UndoLog) Header(m *Machine) (tag uint32, n int) {
	h := m.Mem.ReadWord(l.hdr)
	return h >> 16, int(h & 0xFFFF)
}

// Reset clears the log under a new tag with one header-word write. It
// charges nothing: every caller has already paid for the write, so the
// clear is atomic with the commit it belongs to.
func (l *UndoLog) Reset(m *Machine, tag uint32) {
	l.tag, l.n = tag&0xFFFF, 0
	m.Mem.WriteWord(l.hdr, l.tag<<16)
}

// Recover brings the log in line with a restored checkpoint whose commit
// identity is tag: entries appended under tag (after that checkpoint) are
// rolled back, then the log is cleared under tag, charging its one word.
func (l *UndoLog) Recover(m *Machine, tag uint32) {
	if t, n := l.Header(m); t == tag&0xFFFF {
		l.Rollback(m, n)
	}
	m.Spend(energy.NVWritePerWord)
	l.Reset(m, tag)
}

// Append logs the size old bytes at addr, charging cost for the entry plus
// one read and write per extra block word, then commits the entry by
// bumping the header's count. The caller performs the store itself. An
// append to a full log is a fault: runtimes force a commit (or fault with
// their own diagnosis) before a store that would overflow.
func (l *UndoLog) Append(m *Machine, addr uint32, size int, cost int64) {
	if l.Full() {
		m.Fault("undo log overflow")
	}
	m.EmitEvent(obs.EvUndoAppend, int64(addr), int64(size))
	m.PushCat(obs.CatUndoLog)
	m.Spend(cost)
	var old uint32
	if size == 1 {
		old = uint32(m.Mem.ReadByteAt(addr))
	} else {
		old = m.Mem.ReadWord(addr)
	}
	e := l.base + uint32(l.n)*l.entry
	m.Mem.WriteWord(e, addr)
	m.Mem.WriteWord(e+4, uint32(size))
	m.Mem.WriteWord(e+8, old)
	if size > 4 {
		m.CopyCharged(e+12, addr+4, size-4, 1)
	}
	l.n++
	m.Mem.WriteWord(l.hdr, l.tag<<16|uint32(l.n))
	m.PopCat()
}

// Rollback restores the old bytes of the log's first n entries,
// newest-first, counting each in CtrUndoRollbacks. It leaves the header alone, so a failure mid-rollback
// re-runs it from the same header on the next boot; the caller then
// clears the log with Reset.
func (l *UndoLog) Rollback(m *Machine, n int) {
	if n > 0 {
		m.EmitEvent(obs.EvUndoRollback, int64(n), 0)
	}
	m.PushCat(obs.CatUndoLog)
	for i := n - 1; i >= 0; i-- {
		m.Spend(energy.UndoRollback)
		e := l.base + uint32(i)*l.entry
		addr := m.Mem.ReadWord(e)
		size := int(m.Mem.ReadWord(e + 4))
		old := m.Mem.ReadWord(e + 8)
		switch {
		case size == 1:
			m.Mem.WriteByteAt(addr, byte(old))
		case size <= 4:
			m.Mem.WriteWord(addr, old)
		default:
			m.Mem.WriteWord(addr, old)
			m.CopyCharged(addr+4, e+12, size-4, 1)
		}
		m.Count(CtrUndoRollbacks)
	}
	m.PopCat()
}
