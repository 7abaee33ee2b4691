package cc_test

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/vm"
)

// runBoth compiles at O0 and O2 (and, when the program allows it, in
// static-locals mode) and checks all variants agree on out channel 0.
func runBoth(t *testing.T, src string, want []int32) {
	t.Helper()
	var ref []int32
	for _, o0 := range []bool{true, false} {
		got := run(t, src, o0)[0]
		if want != nil {
			if len(got) != len(want) {
				t.Fatalf("O0=%v: got %v want %v", o0, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("O0=%v: out[%d]=%d want %d (%v)", o0, i, got[i], want[i], got)
				}
			}
		}
		if ref == nil {
			ref = got
		}
	}
	// Static-locals lowering must agree too (pointer/recursion-free srcs).
	prog, err := cc.Compile(src, cc.Options{StaticLocals: true})
	if err != nil {
		return // recursion or similar: fine, skip
	}
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
		t.Fatalf("static: %v %+v", err, res)
	}
	got := res.OutLog[0]
	if len(got) != len(ref) {
		t.Fatalf("static build diverged: %v vs %v", got, ref)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("static build diverged at %d: %v vs %v", i, got, ref)
		}
	}
}

func TestSwitchBasics(t *testing.T) {
	runBoth(t, `
int classify(int x) {
    switch (x) {
    case 0:
        return 100;
    case 1:
    case 2:
        return 200;
    default:
        return 900;
    }
    return -1;
}
int main() {
    int i;
    for (i = 0; i < 5; i++) { out(0, classify(i)); }
    return 0;
}`, []int32{100, 200, 200, 900, 900})
}

func TestSwitchFallthrough(t *testing.T) {
	runBoth(t, `
int main() {
    int x;
    for (x = 0; x < 4; x++) {
        int acc = 0;
        switch (x) {
        case 0:
            acc += 1;
        case 1:
            acc += 10;
            break;
        case 2:
            acc += 100;
        default:
            acc += 1000;
        }
        out(0, acc);
    }
    return 0;
}`, []int32{11, 10, 1100, 1000})
}

func TestSwitchDefaultInMiddle(t *testing.T) {
	runBoth(t, `
int main() {
    int x;
    for (x = 0; x < 3; x++) {
        switch (x) {
        case 2:
            out(0, 22);
            break;
        default:
            out(0, 99);
            break;
        case 0:
            out(0, 7);
            break;
        }
    }
    return 0;
}`, []int32{7, 99, 22})
}

func TestSwitchBreakInsideLoopInteraction(t *testing.T) {
	runBoth(t, `
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 6; i++) {
        switch (i & 1) {
        case 0:
            s += 1;
            break; // leaves the switch, not the loop
        case 1:
            s += 10;
        }
        s += 100;
    }
    out(0, s);
    return 0;
}`, []int32{633})
}

func TestSwitchErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup case", `int main() { switch (1) { case 1: break; case 1: break; } return 0; }`, "duplicate case"},
		{"dup default", `int main() { switch (1) { default: break; default: break; } return 0; }`, "duplicate default"},
		{"stray stmt", `int main() { switch (1) { out(0, 1); } return 0; }`, "outside a case label"},
		{"continue in switch", `int main() { switch (1) { case 1: continue; } return 0; }`, "continue outside"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := cc.Compile(c.src, cc.Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not mention %q", err, c.want)
			}
		})
	}
}

func TestDoWhile(t *testing.T) {
	runBoth(t, `
int main() {
    int i = 0;
    int s = 0;
    do {
        s += i;
        i++;
    } while (i < 5);
    out(0, s);
    // Executes at least once even when the condition is false.
    do { s += 1000; } while (0);
    out(0, s);
    return 0;
}`, []int32{10, 1010})
}

func TestDoWhileBreakContinue(t *testing.T) {
	runBoth(t, `
int main() {
    int i = 0;
    int s = 0;
    do {
        i++;
        if (i == 3) { continue; }
        if (i == 6) { break; }
        s += i;
    } while (i < 100);
    out(0, s);
    out(1, i);
    return 0;
}`, nil)
	got := run(t, `
int main() {
    int i = 0;
    int s = 0;
    do {
        i++;
        if (i == 3) { continue; }
        if (i == 6) { break; }
        s += i;
    } while (i < 100);
    out(0, s);
    out(1, i);
    return 0;
}`, false)
	if got[0][0] != 1+2+4+5 || got[1][0] != 6 {
		t.Fatalf("do-while control flow: %v", got)
	}
}

func TestCompoundAssignOperators(t *testing.T) {
	runBoth(t, `
int a[4];
int main() {
    int x = 6;
    x *= 7;   out(0, x);  // 42
    x &= 56;  out(0, x);  // 40
    x |= 5;   out(0, x);  // 45
    x ^= 15;  out(0, x);  // 34
    x <<= 2;  out(0, x);  // 136
    x >>= 3;  out(0, x);  // 17
    a[1] = 3;
    a[1] *= 5;  out(0, a[1]); // 15
    a[1] ^= 6;  out(0, a[1]); // 9
    a[1] <<= 1; out(0, a[1]); // 18
    return 0;
}`, []int32{42, 40, 45, 34, 136, 17, 15, 9, 18})
}
