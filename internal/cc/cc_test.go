package cc_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/vm"
)

// run compiles src, links it with a plain spec, executes it on the VM
// under continuous power and returns the out-channel log.
func run(t *testing.T, src string, opt int) map[int32][]int32 {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{OptLevel: opt})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: 4096})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	return res.OutLog
}

func TestLexerBasics(t *testing.T) {
	toks, err := cc.Tokenize(`int x = 0x1F; // comment
/* block */ char c = 'a'; x += 200ms + 5s;`)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	for _, tok := range toks {
		if tok.Kind == cc.Number {
			vals = append(vals, tok.Val)
		}
	}
	want := []int64{0x1F, 'a', 200, 5000}
	if len(vals) != len(want) {
		t.Fatalf("numbers: got %v want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("number %d: got %d want %d", i, vals[i], want[i])
		}
	}
}

func TestLexerDefines(t *testing.T) {
	out := run(t, `
#define N 7
#define NEG -3
int main() { out(0, N + NEG); return 0; }
`, 2)
	if out[0][0] != 4 {
		t.Fatalf("defines: got %d", out[0][0])
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", `int foo() { return 1; }`, "no main"},
		{"undefined var", `int main() { return x; }`, "undefined variable"},
		{"undefined func", `int main() { return f(); }`, "undefined function"},
		{"arity", `int f(int a) { return a; } int main() { return f(); }`, "takes 1 arguments"},
		{"dup global", `int x; int x; int main() { return 0; }`, "duplicate global"},
		{"dup param", `int f(int a, int a) { return a; } int main() { return 0; }`, "duplicate parameter"},
		{"void value", `void f() { } int main() { return f(); }`, "void"},
		{"break outside", `int main() { break; return 0; }`, "break outside"},
		{"bad deref", `int main() { int x; return *x; }`, "cannot dereference"},
		{"bad addr", `int main() { return &5; }`, "address"},
		{"expires non-annotated", `int g; int main() { @expires(g) { } return 0; }`, "@expires_after"},
		{"atassign non-annotated", `int g; int main() { g @= 1; return 0; }`, "@expires_after"},
		{"unterminated comment", "int main() { /* oops", "unterminated"},
		{"void variable", `int main() { void v; return 0; }`, "void type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := cc.Compile(c.src, cc.Options{OptLevel: 2})
			if err == nil {
				t.Fatalf("compiled without error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestRecursionDetection(t *testing.T) {
	src := `
int even(int n);
` // forward decls unsupported; use direct recursion instead
	_ = src
	prog, err := cc.Compile(`
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int main() { return fact(5); }
`, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !prog.HasRecursion {
		t.Fatal("recursion not detected")
	}
	if _, err := cc.Compile(`
int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
int main() { return fact(5); }
`, cc.Options{OptLevel: 2, StaticLocals: true}); err == nil {
		t.Fatal("static-locals mode accepted recursion")
	}
}

func TestPointerFlag(t *testing.T) {
	prog, err := cc.Compile(`int main() { int x; int *p; p = &x; *p = 3; return x; }`, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !prog.UsesPointers {
		t.Fatal("pointer use not detected")
	}
	prog, err = cc.Compile(`int main() { return 0; }`, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.UsesPointers {
		t.Fatal("false positive pointer detection")
	}
}

func TestLanguageSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []int32
	}{
		{"arith precedence", `int main() { out(0, 2 + 3 * 4 - 10 / 2); return 0; }`, []int32{9}},
		{"shift and mask", `int main() { out(0, (1 << 10) | 15 & 3); return 0; }`, []int32{1027}},
		{"ternary", `int main() { int x = 5; out(0, x > 3 ? 10 : 20); return 0; }`, []int32{10}},
		{"short circuit", `
int g;
int bump() { g++; return 0; }
int main() { int r = bump() && bump(); out(0, g); out(1, r); return 0; }`, nil},
		{"while break continue", `
int main() {
    int i; int s = 0;
    for (i = 0; i < 100; i++) {
        if (i == 7) { continue; }
        if (i == 10) { break; }
        s += i;
    }
    out(0, s);
    return 0;
}`, []int32{38}},
		{"char truncation", `
char c;
int main() { c = 300; out(0, c); int d = 300; d = d & 255; out(1, d); return 0; }`, nil},
		{"unsigned compare", `
uint u;
int main() { u = 0 - 1; out(0, u > 100); out(1, -1 > 100); return 0; }`, nil},
		{"pointer arith", `
int a[4];
int main() {
    int *p = a;
    *(p + 2) = 9;
    out(0, a[2]);
    p++;
    *p = 5;
    out(1, a[1]);
    out(2, p - a);
    return 0;
}`, []int32{9, 5, 1}},
		{"nested calls", `
int add(int a, int b) { return a + b; }
int main() { out(0, add(add(1, 2), add(3, 4))); return 0; }`, []int32{10}},
		{"globals init", `
int xs[4] = {10, 20, 30};
int y = -5;
char cs[3] = {65, 66};
int main() { out(0, xs[0] + xs[1] + xs[2] + xs[3]); out(1, y); out(2, cs[0] + cs[1] + cs[2]); return 0; }`,
			[]int32{60, -5, 131}},
		{"do not elide compound", `
int a[3];
int main() { a[1] += 5; a[1] -= 2; out(0, a[1]); return 0; }`, []int32{3}},
		{"modulo negative", `int main() { out(0, -7 % 3); out(1, 7 % -3); return 0; }`, []int32{-1, 1}},
		// >> is logical for every type; / and % are signed even on uint
		// (LANGUAGE.md, isa.Eval). u is a global so O2 cannot fold it.
		{"logical shift right", `int main() { out(0, (0 - 8) >> 1); return 0; }`, []int32{2147483644}},
		{"uint divide is signed", `
uint u;
int main() { u = 0 - 1; out(0, u / 2); out(1, u % 7); out(2, u >> 28); return 0; }`, []int32{0, -1, 15}},
		// A literal is the 32-bit word it pushes, folded or not.
		{"wide literal", `int main() { out(0, !4294967296); out(1, 4294967296 ? 5 : 6); return 0; }`, []int32{1, 6}},
		{"postfix prefix", `
int main() { int i = 5; out(0, i++); out(1, ++i); out(2, i--); out(3, --i); out(4, i); return 0; }`,
			[]int32{5, 7, 7, 5, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, opt := range []int{0, 2} {
				out := run(t, c.src, opt)
				if c.want != nil {
					got := out[0]
					var all []int32
					for ch := int32(0); ch < 8; ch++ {
						all = append(all, out[ch]...)
					}
					_ = got
					for i, w := range c.want {
						if all[i] != w {
							t.Fatalf("O%d: out[%d] = %d, want %d (all %v)", opt, i, all[i], w, all)
						}
					}
				}
			}
		})
	}
	// Targeted checks for the nil-want cases.
	out := run(t, `
int g;
int bump() { g++; return 0; }
int main() { int r = bump() && bump(); out(0, g); out(1, r); return 0; }`, 2)
	if out[0][0] != 1 || out[1][0] != 0 {
		t.Fatalf("short circuit: %v", out)
	}
	out = run(t, `
char c;
int main() { c = 300; out(0, c); return 0; }`, 2)
	if out[0][0] != 44 {
		t.Fatalf("char truncation: %v", out)
	}
	out = run(t, `
uint u;
int main() { u = 0 - 1; out(0, u > 100); out(1, -1 > 100); return 0; }`, 2)
	if out[0][0] != 1 || out[1][0] != 0 {
		t.Fatalf("unsigned compare: %v", out)
	}
}

// exprGen builds random integer expressions together with a Go reference
// evaluation, avoiding division by values that could be zero. Leaves
// include MaxInt32 and MinInt32, so wraparound and MinInt32 / -1 are
// exercised; shift counts run past 31 (the machine takes them mod 32).
type exprGen struct {
	rng *rand.Rand
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func (g *exprGen) gen(depth int) (string, int32) {
	if depth == 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(12) {
		case 0:
			return "2147483647", math.MaxInt32
		case 1:
			return "(0 - 2147483647 - 1)", math.MinInt32
		}
		v := int32(g.rng.Intn(2001) - 1000)
		if v < 0 {
			return fmt.Sprintf("(0 - %d)", -v), v
		}
		return fmt.Sprintf("%d", v), v
	}
	ls, lv := g.gen(depth - 1)
	rs, rv := g.gen(depth - 1)
	switch g.rng.Intn(16) {
	case 0:
		return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
	case 1:
		return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
	case 2:
		return fmt.Sprintf("(%s * %s)", ls, rs), lv * rv
	case 3:
		if rv == 0 {
			return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
		}
		return fmt.Sprintf("(%s / %s)", ls, rs), lv / rv
	case 4:
		if rv == 0 {
			return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
		}
		return fmt.Sprintf("(%s %% %s)", ls, rs), lv % rv
	case 5:
		return fmt.Sprintf("(%s & %s)", ls, rs), lv & rv
	case 6:
		return fmt.Sprintf("(%s | %s)", ls, rs), lv | rv
	case 7:
		return fmt.Sprintf("(%s ^ %s)", ls, rs), lv ^ rv
	case 8:
		sh := uint32(g.rng.Intn(40))
		return fmt.Sprintf("(%s << %d)", ls, sh), lv << (sh & 31)
	case 9:
		// >> is a logical shift on every type.
		sh := uint32(g.rng.Intn(40))
		return fmt.Sprintf("(%s >> %d)", ls, sh), int32(uint32(lv) >> (sh & 31))
	case 10:
		return fmt.Sprintf("(%s == %s)", ls, rs), b2i(lv == rv)
	case 11:
		return fmt.Sprintf("(%s != %s)", ls, rs), b2i(lv != rv)
	case 12:
		return fmt.Sprintf("(%s < %s)", ls, rs), b2i(lv < rv)
	case 13:
		return fmt.Sprintf("(%s <= %s)", ls, rs), b2i(lv <= rv)
	case 14:
		return fmt.Sprintf("(%s > %s)", ls, rs), b2i(lv > rv)
	default:
		return fmt.Sprintf("(%s >= %s)", ls, rs), b2i(lv >= rv)
	}
}

// TestExpressionProperty compiles random constant expressions at O0 and O2
// and checks both against a Go reference evaluation. At O2 the whole
// expression folds to a constant, so this simultaneously validates the
// evaluator, the code generator and the optimizer against each other.
func TestExpressionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := &exprGen{rng: rng}
	for i := 0; i < 300; i++ {
		expr, want := g.gen(4)
		src := fmt.Sprintf("int main() { out(0, %s); return 0; }", expr)
		for _, opt := range []int{0, 2} {
			out := run(t, src, opt)
			if got := out[0][0]; got != want {
				t.Fatalf("iter %d O%d: %s = %d, want %d", i, opt, expr, got, want)
			}
		}
	}
}

// TestStaticLocalsEquivalence checks that the Chinchilla-style promoted
// build computes the same results as the stack build on a pointer-free,
// recursion-free program.
func TestStaticLocalsEquivalence(t *testing.T) {
	src := `
int acc[8];
int combine(int a, int b) { int t = a * 2; int u = b + 3; return t ^ u; }
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 8; i++) {
        acc[i] = combine(i, s);
        s += acc[i];
    }
    out(0, s);
    return 0;
}`
	want := run(t, src, 2)[0][0]
	prog, err := cc.Compile(src, cc.Options{OptLevel: 2, StaticLocals: true})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil || !res.Completed {
		t.Fatalf("static build: %v %+v", err, res)
	}
	if got := res.OutLog[0][0]; got != want {
		t.Fatalf("static locals diverge: %d vs %d", got, want)
	}
}

// TestO2Shrinks ensures the optimizer actually reduces code size.
func TestO2Shrinks(t *testing.T) {
	src := `
int main() {
    int x = 2 + 3 * 4;
    int y = x + 0;
    out(0, y * 1);
    return 0;
}`
	p0, err := cc.Compile(src, cc.Options{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cc.Compile(src, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p2.TextBytes() >= p0.TextBytes() {
		t.Fatalf("O2 (%d B) not smaller than O0 (%d B)", p2.TextBytes(), p0.TextBytes())
	}
}

// TestMinSegmentBytes sanity-checks the frame accounting that bounds the
// TICS segment size.
func TestMinSegmentBytes(t *testing.T) {
	prog, err := cc.Compile(`
int big(int a, int b, int c) {
    int buf[16];
    buf[0] = a + b + c;
    return buf[0];
}
int main() { return big(1, 2, 3); }
`, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := prog.FuncByName["big"]
	if f.LocalBytes < 64 {
		t.Fatalf("big's locals = %d B, want >= 64 (the array)", f.LocalBytes)
	}
	if prog.MinSegmentBytes() < f.SegmentNeedBytes() {
		t.Fatalf("MinSegmentBytes %d < big's need %d", prog.MinSegmentBytes(), f.SegmentNeedBytes())
	}
}

// TestDisassemble exercises the ISA decoder over a full compiled program.
func TestDisassemble(t *testing.T) {
	prog, err := cc.Compile(`int main() { out(0, 1); return 0; }`, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, link.RuntimeSpec{Name: "plain", RuntimeBytes: 16, StackBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := img.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"_start", "main", "out", "halt"} {
		if !strings.Contains(asm, want) {
			t.Fatalf("disassembly lacks %q:\n%s", want, asm)
		}
	}
	if _, _, err := isa.DecodeAll(img.Text); err != nil {
		t.Fatal(err)
	}
}
