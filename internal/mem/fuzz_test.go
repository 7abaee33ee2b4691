package mem_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refMem is the reference memory FuzzWordAccess holds the paged one to:
// a flat byte slice, counting each access as its doc comment says, a
// word as one access of WordBytes bytes.
type refMem struct {
	b  []byte
	st mem.Stats
}

// check returns the RangeError an access of n bytes at addr raises, or
// nil.
func (r *refMem) check(addr uint32, n int, op string) *mem.RangeError {
	if uint64(addr)+uint64(n) > mem.Size {
		return &mem.RangeError{Op: op, Addr: addr, N: n}
	}
	return nil
}

func (r *refMem) read(n int) {
	r.st.Reads++
	r.st.ReadBytes += uint64(n)
}

func (r *refMem) write(n int) {
	r.st.Writes++
	r.st.WriteBytes += uint64(n)
}

// opBytes hands out the fuzzer's bytes as operation fields, zeros once
// they run out.
type opBytes []byte

func (o *opBytes) byte() byte {
	if len(*o) == 0 {
		return 0
	}
	v := (*o)[0]
	*o = (*o)[1:]
	return v
}

func (o *opBytes) u16() uint16 { return uint16(o.byte()) | uint16(o.byte())<<8 }

func (o *opBytes) u32() uint32 { return uint32(o.u16()) | uint32(o.u16())<<16 }

// addr draws an address, mostly where the word paths part ways: the
// last bytes of a page (a word there straddles into the next), the top
// of the address space, just below 2³² (where addr+n wraps), or two
// pages around 0x8000 that the ops keep coming back to.
func (o *opBytes) addr() uint32 {
	k := o.byte()
	switch k % 5 {
	case 0:
		return uint32(o.u16())
	case 1:
		pg := uint32(o.byte()) % (mem.NumPages + 1)
		return pg*mem.PageSize - 1 - uint32(k>>3)%4
	case 2:
		return mem.Size - uint32(k>>3)%12
	case 3:
		return ^uint32(0) - uint32(k>>3)%8
	}
	return 0x7c00 + uint32(o.u16())%0x800
}

// size draws a byte count: mostly a few bytes, sometimes up to three
// pages.
func (o *opBytes) size() int {
	if k := o.byte(); k&0x80 == 0 {
		return int(k) % 12
	}
	return int(o.u16()) % (3*mem.PageSize + 8)
}

// access runs f on m and returns its value and the RangeError it
// panicked with, if any; any other panic goes on.
func access(m *mem.Memory, f func(m *mem.Memory) uint32) (v uint32, re *mem.RangeError) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(mem.RangeError)
			if !ok {
				panic(r)
			}
			re = &e
		}
	}()
	return f(m), nil
}

func sameRangeError(a, b *mem.RangeError) bool {
	return a == nil && b == nil || a != nil && b != nil && *a == *b
}

// FuzzWordAccess runs a random sequence of word, byte, copy, zero,
// save/restore and reset operations on a flat memory and on a fork of a
// shared base, and holds both to a flat byte-slice reference after every
// operation: the same values, the same Stats, the same RangeError (Op,
// Addr, N). At the end both memories must hold the reference's bytes,
// and the base must hold what it was frozen with.
func FuzzWordAccess(f *testing.F) {
	f.Add(int64(1), []byte{1, 1, 7, 0x3c, 0xff, 0, 0, 1, 0})
	f.Add(int64(2), []byte{0, 4, 0xfd, 1, 2, 3, 4, 1, 0x16, 0x40, 9, 9, 9, 9, 7, 2, 0x21})
	f.Add(int64(3), []byte{4, 4, 1, 2, 0x83, 0x40, 1, 5, 1, 0x84, 3, 9, 6, 3, 0x81, 0, 4, 8, 1, 4, 0})
	f.Add(int64(4), []byte{1, 2, 0x48, 1, 2, 3, 4, 0, 2, 0x38, 3, 0x1b, 0x41, 0x7f, 9, 1, 2, 0x50, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		fill := make([]byte, mem.Size)
		rand.New(rand.NewSource(seed)).Read(fill)
		flat := mem.New()
		flat.WriteBytes(0, fill)
		base := flat.Freeze()
		flat.ResetStats()
		mems := []*mem.Memory{flat, mem.Fork(base)}
		names := []string{"flat", "fork"}
		ref := &refMem{b: bytes.Clone(fill)}

		var saved []mem.Pages
		var savedRef *refMem
		o := opBytes(ops)
		for step := 0; len(o) > 0 && step < 512; step++ {
			var what string
			var fn func(m *mem.Memory) uint32
			var want uint32
			var wantErr *mem.RangeError
			switch o.byte() % 10 {
			case 0:
				a := o.addr()
				what = "ReadWord"
				fn = func(m *mem.Memory) uint32 { return m.ReadWord(a) }
				if wantErr = ref.check(a, mem.WordBytes, "read"); wantErr == nil {
					ref.read(mem.WordBytes)
					want = uint32(ref.b[a]) | uint32(ref.b[a+1])<<8 | uint32(ref.b[a+2])<<16 | uint32(ref.b[a+3])<<24
				}
			case 1:
				a, v := o.addr(), o.u32()
				what = "WriteWord"
				fn = func(m *mem.Memory) uint32 { m.WriteWord(a, v); return 0 }
				if wantErr = ref.check(a, mem.WordBytes, "write"); wantErr == nil {
					ref.write(mem.WordBytes)
					ref.b[a], ref.b[a+1], ref.b[a+2], ref.b[a+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				}
			case 2:
				a := o.addr()
				what = "ReadByteAt"
				fn = func(m *mem.Memory) uint32 { return uint32(m.ReadByteAt(a)) }
				if wantErr = ref.check(a, 1, "read"); wantErr == nil {
					ref.read(1)
					want = uint32(ref.b[a])
				}
			case 3:
				a, v := o.addr(), o.byte()
				what = "WriteByteAt"
				fn = func(m *mem.Memory) uint32 { m.WriteByteAt(a, v); return 0 }
				if wantErr = ref.check(a, 1, "write"); wantErr == nil {
					ref.write(1)
					ref.b[a] = v
				}
			case 4:
				dst, src, words := o.addr(), o.addr(), o.size()/mem.WordBytes
				n := words * mem.WordBytes
				if d, s := uint64(dst), uint64(src); n > 0 && d < s+uint64(n) && s < d+uint64(n) {
					continue // CopyWords takes no overlapping ranges
				}
				what = "CopyWords"
				fn = func(m *mem.Memory) uint32 { m.CopyWords(dst, src, words); return 0 }
				if wantErr = ref.check(src, n, "read"); wantErr == nil {
					if wantErr = ref.check(dst, n, "write"); wantErr == nil {
						ref.st.Reads += uint64(words)
						ref.st.Writes += uint64(words)
						ref.st.ReadBytes += uint64(n)
						ref.st.WriteBytes += uint64(n)
						copy(ref.b[dst:dst+uint32(n)], ref.b[src:src+uint32(n)])
					}
				}
			case 5:
				dst, src, n := o.addr(), o.addr(), o.size()
				what = "CopyWithin"
				fn = func(m *mem.Memory) uint32 { m.CopyWithin(dst, src, n); return 0 }
				if wantErr = ref.check(src, n, "read"); wantErr == nil {
					if wantErr = ref.check(dst, n, "write"); wantErr == nil {
						ref.read(n)
						ref.write(n)
						copy(ref.b[dst:dst+uint32(n)], ref.b[src:src+uint32(n)])
					}
				}
			case 6:
				a, n := o.addr(), o.size()
				what = "Zero"
				fn = func(m *mem.Memory) uint32 { m.Zero(a, n); return 0 }
				if wantErr = ref.check(a, n, "write"); wantErr == nil {
					ref.write(n)
					clear(ref.b[a : a+uint32(n)])
				}
			case 7:
				saved = make([]mem.Pages, len(mems))
				for i, m := range mems {
					m.SavePages(&saved[i])
				}
				savedRef = &refMem{b: bytes.Clone(ref.b), st: ref.st}
				continue
			case 8:
				if saved == nil {
					continue
				}
				for i, m := range mems {
					if err := m.RestorePages(&saved[i]); err != nil {
						t.Fatalf("step %d: %s RestorePages: %v", step, names[i], err)
					}
				}
				ref = &refMem{b: bytes.Clone(savedRef.b), st: savedRef.st}
				what = "RestorePages"
				fn = func(*mem.Memory) uint32 { return 0 }
			case 9:
				for _, m := range mems {
					m.ResetToBase(base)
				}
				ref = &refMem{b: bytes.Clone(fill)}
				saved = nil // the flat memory's pages were saved over no base
				what = "ResetToBase"
				fn = func(*mem.Memory) uint32 { return 0 }
			}
			for i, m := range mems {
				v, re := access(m, fn)
				if !sameRangeError(re, wantErr) {
					t.Fatalf("step %d: %s %s: range error %v, want %v", step, names[i], what, re, wantErr)
				}
				if v != want {
					t.Fatalf("step %d: %s %s = %#x, want %#x", step, names[i], what, v, want)
				}
				if got := m.Stats(); got != ref.st {
					t.Fatalf("step %d: %s after %s: stats %+v, want %+v", step, names[i], what, got, ref.st)
				}
			}
		}
		for i, m := range mems {
			if !bytes.Equal(m.Snapshot(), ref.b) {
				t.Fatalf("%s: contents differ from the reference", names[i])
			}
		}
		if !bytes.Equal(mem.Fork(base).Snapshot(), fill) {
			t.Fatal("the shared base was written")
		}
	})
}
