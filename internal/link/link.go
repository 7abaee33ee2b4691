// Package link lays out a compiled TICS-C program in the 64 KB address
// space of the simulated device and resolves relocations. The layout
// mirrors an MSP430FR59xx firmware image: a small reserved vector area, a
// runtime-private persistent area (checkpoint buffers, undo log), .text,
// .data, .bss, and the stack region (for TICS: the segment array).
package link

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/mem"
)

// RuntimeSpec tells the linker how much space the chosen runtime needs.
// ExtraTextBytes/ExtraDataBytes model the runtime library's own footprint
// for the Table 3 memory accounting (our runtimes execute host-side, so
// their code size is charged as a calibrated constant rather than
// measured).
type RuntimeSpec struct {
	Name           string
	RuntimeBytes   int // runtime-private NV area (checkpoint buffers, logs)
	StackBytes     int // stack region / segment array size
	ExtraTextBytes int // modeled runtime code footprint
	ExtraDataBytes int // modeled runtime static data footprint
}

// FuncMeta is the per-function metadata the VM and runtimes need.
type FuncMeta struct {
	Name           string
	Entry          uint32 // absolute address of the Enter instruction
	NArgs          int
	StackArgWords  int
	LocalBytes     int
	MaxEvalWords   int
	FrameBytes     int // saved FP + locals + worst-case operand stack
	EntryCopyBytes int // return PC + stack arguments moved on a grow
	Recursive      bool
}

// Sections reports section sizes for the memory-overhead experiments.
type Sections struct {
	Text int // program code + modeled runtime code
	Data int // initialized globals + modeled runtime statics
	BSS  int // zero-initialized globals, timestamp slots, mark counters
}

// Image is a linked, loadable firmware image.
type Image struct {
	Program *cc.Program
	Spec    RuntimeSpec

	Text     []byte
	TextBase uint32
	EntryPC  uint32 // boot entry (the call-main stub)

	GlobalsBase uint32 // base of .data (the globals space)
	BSSBase     uint32
	MarkBase    uint32 // base of the mark counter array
	MarkCount   int

	RuntimeBase uint32
	RuntimeLen  uint32
	StackBase   uint32
	StackLen    uint32

	Funcs   []FuncMeta
	Symbols map[string]uint32 // global name → absolute address

	Sect Sections
}

const reservedBytes = 0x100

func align4(n uint32) uint32 { return (n + 3) &^ 3 }

// Link lays out and relocates a program for the given runtime spec.
func Link(prog *cc.Program, spec RuntimeSpec) (*Image, error) {
	if spec.StackBytes <= 0 {
		spec.StackBytes = 2048
	}
	if spec.RuntimeBytes < 16 {
		spec.RuntimeBytes = 16
	}
	img := &Image{Program: prog, Spec: spec, Symbols: map[string]uint32{}}

	img.RuntimeBase = reservedBytes
	img.RuntimeLen = align4(uint32(spec.RuntimeBytes))
	img.TextBase = img.RuntimeBase + img.RuntimeLen

	// Function entry addresses.
	entries := make([]uint32, len(prog.Funcs))
	off := uint32(cc.EntryStubSize)
	for i, f := range prog.Funcs {
		entries[i] = img.TextBase + off
		for _, in := range f.Code {
			off += uint32(in.Size())
		}
	}
	textLen := off

	img.GlobalsBase = align4(img.TextBase + textLen)
	img.BSSBase = img.GlobalsBase + prog.DataBytes
	img.MarkBase = img.GlobalsBase + prog.GlobalsBytes()
	img.MarkCount = prog.MarkCount
	bssTotal := prog.BSSBytes + uint32(4*prog.MarkCount)

	img.StackBase = align4(img.GlobalsBase + prog.DataBytes + bssTotal)
	img.StackLen = align4(uint32(spec.StackBytes))
	if end := uint64(img.StackBase) + uint64(img.StackLen); end > mem.Size {
		return nil, fmt.Errorf("link: image does not fit: stack ends at %#x (>%#x)", end, mem.Size)
	}

	// Relocate and encode.
	stub := []isa.Instr{
		{Op: isa.Call, Imm: int32(entries[prog.MainIndex])},
		{Op: isa.Halt},
	}
	text := isa.EncodeAll(stub)
	if len(text) != cc.EntryStubSize {
		return nil, fmt.Errorf("link: entry stub is %d bytes, expected %d", len(text), cc.EntryStubSize)
	}
	for i, f := range prog.Funcs {
		code := make([]isa.Instr, len(f.Code))
		copy(code, f.Code)
		for _, r := range f.Relocs {
			in := &code[r.Instr]
			switch r.Kind {
			case cc.RelocGlobal:
				in.Imm += int32(img.GlobalsBase)
			case cc.RelocFuncEntry:
				in.Imm = int32(entries[in.Imm])
			case cc.RelocBranch:
				in.Imm += int32(entries[i])
			default:
				return nil, fmt.Errorf("link: unknown relocation kind %d in %s", r.Kind, f.Name)
			}
		}
		text = append(text, isa.EncodeAll(code)...)
	}
	img.Text = text
	img.EntryPC = img.TextBase

	for _, f := range prog.Funcs {
		img.Funcs = append(img.Funcs, FuncMeta{
			Name:           f.Name,
			Entry:          entries[f.Index],
			NArgs:          f.NArgs,
			StackArgWords:  f.StackArgWords,
			LocalBytes:     f.LocalBytes,
			MaxEvalWords:   f.MaxEvalWords,
			FrameBytes:     f.FrameBytes(),
			EntryCopyBytes: f.EntryCopyBytes(),
			Recursive:      f.Recursive,
		})
	}
	for _, g := range prog.Globals {
		img.Symbols[g.Name] = img.GlobalsBase + g.Offset
	}

	img.Sect = Sections{
		Text: len(text) + spec.ExtraTextBytes,
		Data: int(prog.DataBytes) + spec.ExtraDataBytes,
		BSS:  int(bssTotal),
	}
	return img, nil
}

// LoadInto registers the image's regions on a memory and writes the text
// and data images. The runtime area, .bss, mark counters and stack are
// zeroed (a fresh device).
func (img *Image) LoadInto(m *mem.Memory) error {
	regions := []mem.Region{
		{Kind: mem.RegionReserved, Name: "reserved", Base: 0, Len: reservedBytes},
		{Kind: mem.RegionRuntime, Name: "runtime", Base: img.RuntimeBase, Len: img.RuntimeLen},
		{Kind: mem.RegionText, Name: ".text", Base: img.TextBase, Len: align4(uint32(len(img.Text)))},
		{Kind: mem.RegionStack, Name: "stack", Base: img.StackBase, Len: img.StackLen},
	}
	if dataLen := img.StackBase - img.GlobalsBase; dataLen > 0 {
		regions = append(regions,
			mem.Region{Kind: mem.RegionData, Name: ".data", Base: img.GlobalsBase, Len: dataLen})
	}
	for _, r := range regions {
		if err := m.AddRegion(r); err != nil {
			return err
		}
	}
	m.WriteBytes(img.TextBase, img.Text)
	if len(img.Program.DataImage) > 0 {
		m.WriteBytes(img.GlobalsBase, img.Program.DataImage)
	}
	m.ResetStats()
	return nil
}

// FuncAt returns the metadata for the function with the given index: a
// pointer into img.Funcs, which callers must not modify.
func (img *Image) FuncAt(idx int) (*FuncMeta, error) {
	if idx < 0 || idx >= len(img.Funcs) {
		return nil, fmt.Errorf("link: function index %d out of range", idx)
	}
	return &img.Funcs[idx], nil
}

// GlobalAddr returns the absolute address of a named global.
func (img *Image) GlobalAddr(name string) (uint32, bool) {
	a, ok := img.Symbols[name]
	return a, ok
}

// MinSegmentBytes returns the smallest legal TICS segment size for the
// image's program.
func (img *Image) MinSegmentBytes() int { return img.Program.MinSegmentBytes() }

// Disassemble renders the image's text section.
func (img *Image) Disassemble() (string, error) {
	labels := map[uint32]string{img.EntryPC: "_start"}
	for _, f := range img.Funcs {
		labels[f.Entry] = f.Name
	}
	return isa.Disassemble(img.Text, img.TextBase, labels)
}
