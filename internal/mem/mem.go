// Package mem models the byte-addressable memory of an MSP430FR5969-class
// intermittent computing platform: a 64 KB address space whose main memory
// is non-volatile FRAM. Because main memory is non-volatile, a power
// failure preserves everything written to it — including stores that a
// checkpointing runtime has not yet committed, which is exactly the hazard
// model TICS is built around. Only the CPU register file (held by the VM,
// not by this package) is volatile.
//
// The package also provides the region table used by the linker to lay out
// the runtime area, .text, .data, .bss and stack, and gathers access
// statistics used by the experiment harnesses.
//
// # Copy-on-write forks
//
// A fleet simulates many devices running one image; their memories differ
// only where runtime state diverges. Memory is therefore paged: the 64 KB
// space is 64 pages of 1 KB, and a Memory is a page table. A flat memory
// (New) owns all of its pages. A forked memory (Fork) starts with every
// page-table entry pointing into one immutable Base snapshot shared by all
// forks, and materializes a private copy of a page on first write. Reads
// and writes go through the same page-table indexing in both modes, so
// flat and forked memories have identical semantics — bounds checks,
// panics, and access statistics included.
package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Size is the size of the simulated address space in bytes (64 KB, matching
// the FRAM capacity of the MSP430FR5969).
const Size = 64 * 1024

// WordBytes is the machine word size. The paper's MCU is a 16-bit part; we
// widen the word to 32 bits so that millisecond timestamps fit in a plain
// int (see DESIGN.md), while keeping the 64 KB address space.
const WordBytes = 4

// PageShift selects 1 KB pages: small enough that a device touching a few
// hundred bytes of globals plus a stack segment materializes only a
// handful of pages, large enough that the whole space is NumPages = 64
// pages and the dirty set fits one uint64.
const (
	PageShift = 10
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
	NumPages  = Size / PageSize
)

// The dirty set is a single uint64 bitmask; a page-size change that breaks
// that invariant must not compile.
const _ uint64 = 1 << (NumPages - 1)

// RegionKind classifies a layout region.
type RegionKind int

const (
	// RegionReserved is the low-address reserved area (vector-table analog).
	RegionReserved RegionKind = iota
	// RegionRuntime holds runtime-private persistent state: checkpoint
	// buffers, the undo log, segment control blocks.
	RegionRuntime
	// RegionText holds program code.
	RegionText
	// RegionData holds initialized globals.
	RegionData
	// RegionBSS holds zero-initialized globals, timestamp shadow slots and
	// mark counters.
	RegionBSS
	// RegionStack holds the call stack (for TICS: the segment array).
	RegionStack
)

func (k RegionKind) String() string {
	switch k {
	case RegionReserved:
		return "reserved"
	case RegionRuntime:
		return "runtime"
	case RegionText:
		return ".text"
	case RegionData:
		return ".data"
	case RegionBSS:
		return ".bss"
	case RegionStack:
		return "stack"
	}
	return fmt.Sprintf("region(%d)", int(k))
}

// Region is a half-open address interval [Base, Base+Len).
type Region struct {
	Kind RegionKind
	Name string
	Base uint32
	Len  uint32
}

// End returns one past the last address of the region.
func (r Region) End() uint32 { return r.Base + r.Len }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint32) bool { return addr >= r.Base && addr < r.End() }

// Stats counts memory traffic. The experiment harnesses use these to report
// how much NV traffic each runtime generates.
type Stats struct {
	Reads      uint64 // read operations
	Writes     uint64 // write operations
	ReadBytes  uint64
	WriteBytes uint64
}

// Base is an immutable full-memory snapshot that forked memories share.
// Once created it must never be written; every Memory that forks from it
// reads shared pages directly out of its data.
type Base struct {
	data    []byte // len Size
	regions []Region
}

func (b *Base) page(i int) []byte {
	return b.data[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
}

// Memory is the simulated non-volatile main memory: a page table over
// 64 × 1 KB pages. Every entry is always non-nil — it points either into
// the shared base snapshot (bit clear in dirty) or at a private, writable
// page (bit set). A flat memory owns all pages from the start.
type Memory struct {
	pages   [NumPages][]byte
	dirty   uint64 // bit i set: pages[i] is private and writable
	base    *Base  // nil for flat memories
	regions []Region
	// stats holds every access but the word reads and writes, which
	// count into wordReads and wordWrites alone: the word fast paths
	// make one increment, and Stats folds the words in.
	stats      Stats
	wordReads  uint64
	wordWrites uint64
}

// New returns a zeroed flat memory with no layout regions. All pages are
// private slices of one contiguous allocation.
func New() *Memory {
	m := &Memory{dirty: ^uint64(0)}
	buf := make([]byte, Size)
	for i := range m.pages {
		m.pages[i] = buf[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
	}
	return m
}

// Freeze captures the current contents and region table as an immutable
// Base for Fork. The linker calls this once per image, after loading.
func (m *Memory) Freeze() *Base {
	return &Base{data: m.Snapshot(), regions: m.Regions()}
}

// Fork returns a copy-on-write view of base: every page-table entry
// references the shared snapshot, and a private page is materialized only
// on the first write to it. The fork inherits base's region table.
func Fork(b *Base) *Memory {
	m := &Memory{base: b}
	for i := range m.pages {
		m.pages[i] = b.page(i)
	}
	m.regions = append([]Region(nil), b.regions...)
	return m
}

// ResetToBase rebinds the memory to b's contents, regions, and zeroed
// stats, as if freshly forked. When the memory already forks from b, its
// private pages are refilled from the snapshot rather than released: a
// pooled device re-running the same image dirties the same pages, so
// keeping them avoids reallocating on every reuse.
func (m *Memory) ResetToBase(b *Base) {
	if m.base == b && b != nil {
		for d := m.dirty; d != 0; d &= d - 1 {
			i := bits.TrailingZeros64(d)
			copy(m.pages[i], b.page(i))
		}
	} else {
		m.base = b
		for i := range m.pages {
			m.pages[i] = b.page(i)
		}
		m.dirty = 0
	}
	m.regions = append(m.regions[:0], b.regions...)
	m.ResetStats()
}

// Pages is a memory's contents relative to the base it forks from — its
// private pages, in page order — plus its access statistics: what a
// machine snapshot holds instead of a 64 KB copy. A flat memory has no
// base and every page private.
type Pages struct {
	base  *Base
	dirty uint64
	data  []byte
	stats Stats
}

// SavePages copies the memory's private pages and statistics into p,
// reusing p's storage.
func (m *Memory) SavePages(p *Pages) {
	p.base, p.dirty, p.stats = m.base, m.dirty, m.Stats()
	p.data = slices.Grow(p.data[:0], bits.OnesCount64(m.dirty)*PageSize)
	for d := m.dirty; d != 0; d &= d - 1 {
		p.data = append(p.data, m.pages[bits.TrailingZeros64(d)]...)
	}
}

// RestorePages gives the memory the contents and statistics p was saved
// with. The memory must fork from the same base. A page private here but
// shared in p is refilled from the base and stays private, as in
// ResetToBase.
func (m *Memory) RestorePages(p *Pages) error {
	if m.base != p.base {
		return errors.New("mem: restoring pages saved over a different base")
	}
	k := 0
	for i := range m.pages {
		switch bit := uint64(1) << i; {
		case p.dirty&bit != 0:
			copy(m.wpage(uint32(i)), p.data[k*PageSize:(k+1)*PageSize])
			k++
		case m.dirty&bit != 0:
			copy(m.pages[i], m.base.page(i))
		}
	}
	m.stats, m.wordReads, m.wordWrites = p.stats, 0, 0
	return nil
}

// PrivatePages returns how many pages the memory owns rather than shares
// with a base (always NumPages for a flat memory).
func (m *Memory) PrivatePages() int { return bits.OnesCount64(m.dirty) }

// wpage returns page pg as a writable slice, materializing a private copy
// of a shared page first.
func (m *Memory) wpage(pg uint32) []byte {
	p := m.pages[pg]
	if m.dirty&(1<<pg) == 0 {
		np := make([]byte, PageSize)
		copy(np, p)
		m.pages[pg] = np
		m.dirty |= 1 << pg
		p = np
	}
	return p
}

// Stats returns a copy of the accumulated access statistics.
func (m *Memory) Stats() Stats {
	s := m.stats
	s.Reads += m.wordReads
	s.ReadBytes += m.wordReads * WordBytes
	s.Writes += m.wordWrites
	s.WriteBytes += m.wordWrites * WordBytes
	return s
}

// ResetStats zeroes the access statistics.
func (m *Memory) ResetStats() { m.stats, m.wordReads, m.wordWrites = Stats{}, 0, 0 }

// AddRegion registers a layout region. Regions must not overlap; the linker
// relies on this check to catch layout bugs.
func (m *Memory) AddRegion(r Region) error {
	if r.Len == 0 {
		return fmt.Errorf("mem: region %q is empty", r.Name)
	}
	if uint64(r.Base)+uint64(r.Len) > Size {
		return fmt.Errorf("mem: region %q [%#x,%#x) exceeds the %d-byte address space",
			r.Name, r.Base, uint64(r.Base)+uint64(r.Len), Size)
	}
	for _, o := range m.regions {
		if r.Base < o.End() && o.Base < r.End() {
			return fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				r.Name, r.Base, r.End(), o.Name, o.Base, o.End())
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return nil
}

// Regions returns the registered regions in address order.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// RegionFor returns the region containing addr, if any.
func (m *Memory) RegionFor(addr uint32) (Region, bool) {
	for _, r := range m.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// Region returns the first region of the given kind, if any.
func (m *Memory) Region(kind RegionKind) (Region, bool) {
	for _, r := range m.regions {
		if r.Kind == kind {
			return r, true
		}
	}
	return Region{}, false
}

func (m *Memory) check(addr uint32, n int, what string) {
	if uint64(addr)+uint64(n) > Size {
		panic(RangeError{Op: what, Addr: addr, N: n})
	}
}

// RangeError is the panic value of an access that leaves the address
// space. It is typed so the VM can turn a wild program access into a
// device fault while other panics still crash the host.
type RangeError struct {
	Op   string // "read" or "write"
	Addr uint32
	N    int
}

func (e RangeError) Error() string {
	return fmt.Sprintf("mem: %s of %d bytes at %#x out of range", e.Op, e.N, e.Addr)
}

// peekRange copies len(b) bytes starting at addr into b, page by page,
// without stats. Callers bounds-check first.
func (m *Memory) peekRange(addr uint32, b []byte) {
	for len(b) > 0 {
		c := copy(b, m.pages[addr>>PageShift][addr&pageMask:])
		addr += uint32(c)
		b = b[c:]
	}
}

// pokeRange stores b starting at addr, page by page, without stats,
// materializing pages as needed. A shared page that is overwritten in
// full skips the materializing copy. Callers bounds-check first.
func (m *Memory) pokeRange(addr uint32, b []byte) {
	for len(b) > 0 {
		pg, off := addr>>PageShift, addr&pageMask
		var p []byte
		if off == 0 && len(b) >= PageSize && m.dirty&(1<<pg) == 0 {
			p = make([]byte, PageSize)
			m.pages[pg] = p
			m.dirty |= 1 << pg
		} else {
			p = m.wpage(pg)
		}
		c := copy(p[off:], b)
		addr += uint32(c)
		b = b[c:]
	}
}

// ReadByte reads one byte.
func (m *Memory) ReadByteAt(addr uint32) byte {
	m.check(addr, 1, "read")
	m.stats.Reads++
	m.stats.ReadBytes++
	return m.pages[addr>>PageShift][addr&pageMask]
}

// WriteByte writes one byte.
func (m *Memory) WriteByteAt(addr uint32, v byte) {
	m.check(addr, 1, "write")
	m.stats.Writes++
	m.stats.WriteBytes++
	m.wpage(addr >> PageShift)[addr&pageMask] = v
}

// ReadWord reads a 32-bit little-endian word. A word inside one page of
// the address space is read here with no further call; the rest go to
// readWordSlow.
func (m *Memory) ReadWord(addr uint32) uint32 {
	if addr < Size && addr&pageMask <= PageSize-WordBytes {
		m.wordReads++
		return binary.LittleEndian.Uint32(m.pages[addr>>PageShift][addr&pageMask:])
	}
	return m.readWordSlow(addr)
}

// readWordSlow reads a word that straddles a page or leaves the address
// space, where it panics with a RangeError before counting.
func (m *Memory) readWordSlow(addr uint32) uint32 {
	m.check(addr, WordBytes, "read")
	m.wordReads++
	return m.peekWord(addr)
}

func (m *Memory) peekWord(addr uint32) uint32 {
	if off := addr & pageMask; off <= PageSize-WordBytes {
		return binary.LittleEndian.Uint32(m.pages[addr>>PageShift][off:])
	}
	var b [WordBytes]byte
	m.peekRange(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord writes a 32-bit little-endian word. A word inside one page
// that is already private is written here with no further call; the
// rest go to writeWordSlow.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	if pg := addr >> PageShift; pg < NumPages && addr&pageMask <= PageSize-WordBytes && m.dirty&(1<<pg) != 0 {
		m.wordWrites++
		binary.LittleEndian.PutUint32(m.pages[pg][addr&pageMask:], v)
		return
	}
	m.writeWordSlow(addr, v)
}

// writeWordSlow writes a word that straddles a page, leaves the address
// space (a RangeError panic before counting) or lands on a shared page,
// which it materializes first.
func (m *Memory) writeWordSlow(addr uint32, v uint32) {
	m.check(addr, WordBytes, "write")
	m.wordWrites++
	if off := addr & pageMask; off <= PageSize-WordBytes {
		binary.LittleEndian.PutUint32(m.wpage(addr >> PageShift)[off:], v)
		return
	}
	var b [WordBytes]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.pokeRange(addr, b[:])
}

// ReadInt reads a word as a signed 32-bit integer.
func (m *Memory) ReadInt(addr uint32) int32 { return int32(m.ReadWord(addr)) }

// WriteInt writes a signed 32-bit integer.
func (m *Memory) WriteInt(addr uint32, v int32) { m.WriteWord(addr, uint32(v)) }

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	m.check(addr, n, "read")
	m.stats.Reads++
	m.stats.ReadBytes += uint64(n)
	out := make([]byte, n)
	m.peekRange(addr, out)
	return out
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	m.check(addr, len(b), "write")
	m.stats.Writes++
	m.stats.WriteBytes += uint64(len(b))
	m.pokeRange(addr, b)
}

// CopyWithin copies n bytes from src to dst inside the address space,
// counting both the read and the write traffic. Used by checkpoint commits
// and stack-segment moves. Overlapping ranges behave like memmove.
func (m *Memory) CopyWithin(dst, src uint32, n int) {
	m.check(src, n, "read")
	m.check(dst, n, "write")
	m.stats.Reads++
	m.stats.Writes++
	m.stats.ReadBytes += uint64(n)
	m.stats.WriteBytes += uint64(n)
	m.moveRange(dst, src, n)
}

// CopyWords copies words whole words from src to dst, page by page, and
// counts the traffic as the word loop
//
//	for i := range words { WriteWord(dst+4i, ReadWord(src+4i)) }
//
// counts it: one read and one write per word. The ranges must not
// overlap, since the word loop and a memmove part ways there; an
// out-of-range copy panics with a RangeError before anything moves.
func (m *Memory) CopyWords(dst, src uint32, words int) {
	n := words * WordBytes
	m.check(src, n, "read")
	m.check(dst, n, "write")
	m.stats.Reads += uint64(words)
	m.stats.Writes += uint64(words)
	m.stats.ReadBytes += uint64(n)
	m.stats.WriteBytes += uint64(n)
	m.moveRange(dst, src, n)
}

// moveRange copies n bytes from src to dst like memmove, without stats.
// Callers bounds-check first.
func (m *Memory) moveRange(dst, src uint32, n int) {
	if n <= 0 || dst == src {
		return
	}
	if dst < src {
		for n > 0 {
			doff, soff := dst&pageMask, src&pageMask
			c := n
			if r := int(PageSize - doff); r < c {
				c = r
			}
			if r := int(PageSize - soff); r < c {
				c = r
			}
			copy(m.wpage(dst >> PageShift)[doff:doff+uint32(c)],
				m.pages[src>>PageShift][soff:soff+uint32(c)])
			dst += uint32(c)
			src += uint32(c)
			n -= c
		}
		return
	}
	// Copy backward so an overlapping forward-shifted range is not
	// clobbered before it is read.
	de, se := dst+uint32(n), src+uint32(n)
	for n > 0 {
		dstart := (de - 1) &^ pageMask
		sstart := (se - 1) &^ pageMask
		c := n
		if r := int(de - dstart); r < c {
			c = r
		}
		if r := int(se - sstart); r < c {
			c = r
		}
		copy(m.wpage(dstart >> PageShift)[de-uint32(c)-dstart:de-dstart],
			m.pages[sstart>>PageShift][se-uint32(c)-sstart:se-sstart])
		de -= uint32(c)
		se -= uint32(c)
		n -= c
	}
}

// Zero clears n bytes starting at addr. A shared page zeroed in full is
// replaced by a fresh private page without copying the old contents.
func (m *Memory) Zero(addr uint32, n int) {
	m.check(addr, n, "write")
	m.stats.Writes++
	m.stats.WriteBytes += uint64(n)
	for n > 0 {
		pg, off := addr>>PageShift, addr&pageMask
		c := int(PageSize - off)
		if c > n {
			c = n
		}
		if off == 0 && c == PageSize && m.dirty&(1<<pg) == 0 {
			m.pages[pg] = make([]byte, PageSize)
			m.dirty |= 1 << pg
		} else {
			clear(m.wpage(pg)[off : off+uint32(c)])
		}
		addr += uint32(c)
		n -= c
	}
}

// Peek copies len(b) bytes starting at addr into b without touching the
// access statistics. Observers (the trace auditor) use it so that
// watching a run cannot perturb the run's own traffic accounting.
func (m *Memory) Peek(addr uint32, b []byte) {
	m.check(addr, len(b), "peek")
	m.peekRange(addr, b)
}

// PeekWord reads a 32-bit little-endian word without touching the access
// statistics.
func (m *Memory) PeekWord(addr uint32) uint32 {
	m.check(addr, WordBytes, "peek")
	return m.peekWord(addr)
}

// Snapshot returns a copy of the full memory contents. Tests use snapshots
// to compare intermittent executions against the continuous-power oracle.
func (m *Memory) Snapshot() []byte {
	out := make([]byte, Size)
	for i, p := range m.pages {
		copy(out[i*PageSize:], p)
	}
	return out
}

// Restore overwrites the full memory contents from a snapshot. On a forked
// memory, a shared page whose snapshot bytes already match stays shared —
// restoring a snapshot taken before the fork diverged keeps the fork cheap.
func (m *Memory) Restore(snap []byte) {
	if len(snap) != Size {
		panic(fmt.Sprintf("mem: restore snapshot of %d bytes", len(snap)))
	}
	for i := range m.pages {
		sp := snap[i*PageSize : (i+1)*PageSize]
		if m.dirty&(1<<i) == 0 && bytes.Equal(m.pages[i], sp) {
			continue
		}
		copy(m.wpage(uint32(i)), sp)
	}
}
