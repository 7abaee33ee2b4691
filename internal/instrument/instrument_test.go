package instrument_test

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/vm"
)

const src = `
int g;
int f(int x) { return x * 2; }
int main() {
    int i;
    for (i = 0; i < 5; i++) {
        g += f(i);
        mark(0);
    }
    out(0, g);
    return 0;
}
`

func compile(t *testing.T) *cc.Program {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func countOps(prog *cc.Program, op isa.Op) int {
	n := 0
	for _, f := range prog.Funcs {
		for _, in := range f.Code {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestLogStoresRewrite(t *testing.T) {
	prog := compile(t)
	plainStores := countOps(prog, isa.StoreG) + countOps(prog, isa.StoreI) +
		countOps(prog, isa.StoreGB) + countOps(prog, isa.StoreIB)
	if plainStores == 0 {
		t.Fatal("test program has no stores")
	}
	if _, err := instrument.Apply(prog, instrument.ForTICS()); err != nil {
		t.Fatal(err)
	}
	after := countOps(prog, isa.StoreG) + countOps(prog, isa.StoreI) +
		countOps(prog, isa.StoreGB) + countOps(prog, isa.StoreIB)
	logged := countOps(prog, isa.StoreGL) + countOps(prog, isa.StoreIL) +
		countOps(prog, isa.StoreGBL) + countOps(prog, isa.StoreIBL)
	if after != 0 || logged != plainStores {
		t.Fatalf("rewrite: %d plain left, %d logged (want %d)", after, logged, plainStores)
	}
}

func TestCheckpointInsertion(t *testing.T) {
	prog := compile(t)
	if countOps(prog, isa.Chkpt) != 0 {
		t.Fatal("uninstrumented program already has checkpoints")
	}
	if _, err := instrument.Apply(prog, instrument.ForMementos()); err != nil {
		t.Fatal(err)
	}
	// At least one back-edge (the loop) and one call site (f) each get one.
	if countOps(prog, isa.Chkpt) < 2 {
		t.Fatalf("too few inserted checkpoints: %d", countOps(prog, isa.Chkpt))
	}
}

func TestMarkBoundaryInsertion(t *testing.T) {
	prog := compile(t)
	if _, err := instrument.Apply(prog, instrument.ForTICSTaskBoundary()); err != nil {
		t.Fatal(err)
	}
	if countOps(prog, isa.Chkpt) < 1 {
		t.Fatal("no checkpoint inserted at the mark")
	}
}

// TestInstrumentationPreservesSemantics runs the original and every
// instrumented variant under the plain runtime (Chkpt is a no-op there,
// logged stores are raw stores) and requires identical outputs — i.e. the
// branch-offset remapping around inserted instructions is correct.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	exec := func(prog *cc.Program) map[int32][]int32 {
		img, err := link.Link(prog, link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(vm.Config{Image: img})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || !res.Completed {
			t.Fatalf("run: %v %+v", err, res)
		}
		return res.OutLog
	}
	want := exec(compile(t))
	for _, pass := range []instrument.Pass{
		instrument.ForTICS(),
		instrument.ForMementos(),
		instrument.ForChinchilla(),
		instrument.ForTask(),
		instrument.ForTICSTaskBoundary(),
	} {
		prog := compile(t)
		if _, err := instrument.Apply(prog, pass); err != nil {
			t.Fatal(err)
		}
		if got := exec(prog); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %+v changed semantics: %v != %v", pass, got, want)
		}
	}
}
