package apps

import (
	"fmt"
	"math/rand"
	"strings"
)

// progGen emits random TICS-C programs for Random.
type progGen struct {
	rng   *rand.Rand
	buf   strings.Builder
	depth int
	loops int
}

func (g *progGen) expr(depth int) string {
	atoms := []string{
		"g0", "g1", "g2", "g3", "a", "b", "c",
		fmt.Sprintf("%d", g.rng.Intn(200)-100),
		fmt.Sprintf("arr[%d]", g.rng.Intn(8)),
	}
	if depth <= 0 {
		return atoms[g.rng.Intn(len(atoms))]
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.rng.Intn(6))
	case 1:
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1), g.rng.Intn(6))
	case 2:
		return fmt.Sprintf("(%s %s %s ? %s : %s)",
			g.expr(depth-1), []string{"<", ">", "==", "!="}[g.rng.Intn(4)], g.expr(depth-1),
			g.expr(depth-1), g.expr(depth-1))
	default:
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), ops[g.rng.Intn(len(ops))], g.expr(depth-1))
	}
}

func (g *progGen) stmt(indent string) {
	switch g.rng.Intn(11) {
	case 0, 1, 2, 3:
		lhs := []string{"g0", "g1", "g2", "g3", "a", "b", "c",
			fmt.Sprintf("arr[%d]", g.rng.Intn(8))}[g.rng.Intn(8)]
		op := []string{"=", "+=", "-="}[g.rng.Intn(3)]
		fmt.Fprintf(&g.buf, "%s%s %s %s;\n", indent, lhs, op, g.expr(2))
	case 4, 5:
		if g.depth >= 2 {
			fmt.Fprintf(&g.buf, "%sg0 += %s;\n", indent, g.expr(1))
			return
		}
		g.depth++
		fmt.Fprintf(&g.buf, "%sif (%s) {\n", indent, g.expr(1))
		g.block(indent+"    ", 1+g.rng.Intn(2))
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.buf, "%s} else {\n", indent)
			g.block(indent+"    ", 1+g.rng.Intn(2))
		}
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	case 6, 7:
		if g.depth >= 2 || g.loops >= 3 {
			fmt.Fprintf(&g.buf, "%sg1 ^= %s;\n", indent, g.expr(1))
			return
		}
		g.depth++
		v := fmt.Sprintf("i%d", g.loops)
		g.loops++
		fmt.Fprintf(&g.buf, "%sfor (%s = 0; %s < %d; %s++) {\n", indent, v, v, 2+g.rng.Intn(5), v)
		g.block(indent+"    ", 1+g.rng.Intn(2))
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	case 8:
		fmt.Fprintf(&g.buf, "%sg2 = helper(%s, %s);\n", indent, g.expr(1), g.expr(1))
	case 9:
		if g.depth >= 2 {
			fmt.Fprintf(&g.buf, "%sg3 %s= %s;\n", indent,
				[]string{"*", "&", "|", "^"}[g.rng.Intn(4)], g.expr(1))
			return
		}
		g.depth++
		fmt.Fprintf(&g.buf, "%sswitch (%s & 3) {\n", indent, g.expr(1))
		for c := 0; c < 4; c++ {
			fmt.Fprintf(&g.buf, "%scase %d:\n", indent, c)
			g.block(indent+"    ", 1)
			if g.rng.Intn(2) == 0 {
				fmt.Fprintf(&g.buf, "%s    break;\n", indent)
			}
		}
		fmt.Fprintf(&g.buf, "%s}\n", indent)
		g.depth--
	default:
		fmt.Fprintf(&g.buf, "%sstash(%s);\n", indent, g.expr(1))
	}
}

func (g *progGen) block(indent string, n int) {
	for i := 0; i < n; i++ {
		g.stmt(indent)
	}
}

// Random returns the random TICS-C program seed selects: nested loops,
// branches, a switch, helper calls, global/array/local assignments — all
// deterministic (no division, bounded loops), so a continuous-power run
// is an exact oracle for every protected runtime under failure
// injection. The fuzz targets draw their programs from it.
func Random(seed int64) string {
	var g progGen
	return g.program(seed)
}

func (g *progGen) program(seed int64) string {
	g.rng = rand.New(rand.NewSource(seed))
	g.buf.Reset()
	g.depth, g.loops = 0, 0
	g.buf.WriteString(`
int g0; int g1; int g2; int g3;
int arr[8];
int slot;

int helper(int x, int y) {
    int t = x ^ (y << 1);
    if (t < 0) { t = -t; }
    return t + g0;
}

void stash(int v) {
    arr[slot & 7] = v;
    slot++;
}

int main() {
    int a = 1;
    int b = 2;
    int c = 3;
    int i0;
    int i1;
    int i2;
`)
	g.block("    ", 8+g.rng.Intn(8))
	g.buf.WriteString(`
    out(0, g0); out(0, g1); out(0, g2); out(0, g3);
    out(0, a); out(0, b); out(0, c); out(0, slot);
    for (i0 = 0; i0 < 8; i0++) { out(1, arr[i0]); }
    return 0;
}
`)
	return g.buf.String()
}
