package cc

import (
	"fmt"

	"repro/internal/isa"
)

// RelocKind classifies a relocation the linker must apply.
type RelocKind int

const (
	// RelocGlobal: the immediate is an offset into the globals space; the
	// linker adds the globals base address.
	RelocGlobal RelocKind = iota
	// RelocFuncEntry: the immediate is a function index; the linker
	// replaces it with the function's absolute entry address.
	RelocFuncEntry
	// RelocBranch: the immediate is a function-relative byte offset; the
	// linker adds the function's absolute start address.
	RelocBranch
)

// Reloc marks one instruction immediate for link-time fixup.
type Reloc struct {
	Instr int // index into Func.Code
	Kind  RelocKind
}

// Func is a compiled function.
type Func struct {
	Name          string
	Index         int
	NArgs         int
	StackArgWords int // argument words passed on the stack (0 in static-locals mode)
	LocalBytes    int // frame bytes for locals (0 in static-locals mode)
	MaxEvalWords  int // worst-case operand stack depth in words
	Recursive     bool
	Code          []isa.Instr
	// Poss is the source position of each instruction in Code (parallel
	// slice, statement granularity). Hand-assembled functions may leave it
	// nil; consumers must treat a nil or short slice as "position unknown".
	Poss   []Pos
	Relocs []Reloc
	// StaticBase/StaticBytes describe the function's promoted frame in the
	// globals space (static-locals mode only).
	StaticBase  uint32
	StaticBytes int
}

// FrameBytes returns the working-stack space the function needs beyond its
// copied arguments: saved FP + locals + worst-case operand stack.
func (f *Func) FrameBytes() int { return 4 + f.LocalBytes + 4*f.MaxEvalWords }

// EntryCopyBytes returns the bytes moved into a fresh segment on a stack
// grow: the return PC plus the on-stack arguments.
func (f *Func) EntryCopyBytes() int { return 4 + 4*f.StackArgWords }

// SegmentNeedBytes is the total working-stack segment space the function
// requires; the minimum legal segment size is the maximum over all
// functions (paper §3.1.1: "maximum stack frame dictates the minimum block
// size").
func (f *Func) SegmentNeedBytes() int { return f.EntryCopyBytes() + f.FrameBytes() }

// GlobalInfo describes one variable in the globals space.
type GlobalInfo struct {
	Name           string
	Offset         uint32 // offset within the globals space
	Size           int
	Init           []byte // nil for zero-initialized
	ExpiresAfterMs int64  // -1 when not annotated
	TSOffset       uint32 // shadow-timestamp slot offset (valid if ExpiresAfterMs >= 0)
	TSCount        int    // number of slots (array length, or 1)
	ElemSize       int    // element size for arrays, else Size
}

// Program is the output of the compiler: relocatable code plus the globals
// space image, ready for the linker.
type Program struct {
	Funcs      []*Func
	FuncByName map[string]*Func
	Globals    []GlobalInfo
	// DataBytes is the initialized prefix of the globals space (.data);
	// BSSBytes is the zero-initialized remainder including shadow
	// timestamp slots (.bss).
	DataBytes uint32
	BSSBytes  uint32
	DataImage []byte // initial contents of the .data prefix
	MainIndex int
	MarkCount int // number of mark counters the program uses
	// Options the program was compiled with.
	StaticLocals bool
	HasRecursion bool
	UsesPointers bool
}

// GlobalsBytes is the total size of the globals space.
func (p *Program) GlobalsBytes() uint32 { return p.DataBytes + p.BSSBytes }

// MinSegmentBytes returns the smallest legal stack segment size for the
// program (plus one word for the entry stub's call to main).
func (p *Program) MinSegmentBytes() int {
	min := 8
	for _, f := range p.Funcs {
		if n := f.SegmentNeedBytes(); n > min {
			min = n
		}
	}
	return min
}

// Global looks up a global by name.
func (p *Program) Global(name string) (GlobalInfo, bool) {
	for _, g := range p.Globals {
		if g.Name == name {
			return g, true
		}
	}
	return GlobalInfo{}, false
}

// GlobalAt maps an offset in the globals space to the index in Globals
// of the variable that contains it, or -1 for offsets outside every
// variable (shadow-timestamp slots, mark counters, padding).
func (p *Program) GlobalAt(off uint32) int {
	for i, g := range p.Globals {
		if off >= g.Offset && off < g.Offset+uint32(g.Size) {
			return i
		}
	}
	return -1
}

// TextBytes returns the total encoded code size including the entry stub.
func (p *Program) TextBytes() int {
	n := EntryStubSize
	for _, f := range p.Funcs {
		for _, in := range f.Code {
			n += in.Size()
		}
	}
	return n
}

// EntryStubSize is the encoded size of the boot stub the linker emits
// before the first function (call main; halt).
const EntryStubSize = 5 + 1

func (p *Program) String() string {
	return fmt.Sprintf("program{funcs=%d globals=%d text=%dB data=%dB bss=%dB}",
		len(p.Funcs), len(p.Globals), p.TextBytes(), p.DataBytes, p.BSSBytes)
}

// Options configures compilation.
type Options struct {
	// O0 turns optimization off. Without it the compiler folds constants
	// and runs the peephole pass: -O2, the paper's other point on Figure
	// 9's O0/O2 axis.
	O0 bool
	// StaticLocals promotes every local and parameter to a static
	// allocation in the globals space, Chinchilla-style. Rejects recursive
	// programs.
	StaticLocals bool
}

// Compile parses, analyzes and compiles TICS-C source.
func Compile(src string, opts Options) (*Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	unit, err := Analyze(file)
	if err != nil {
		return nil, err
	}
	if !opts.O0 {
		foldFile(file)
	}
	return generate(unit, opts)
}
