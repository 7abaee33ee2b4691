package chinchilla_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline/chinchilla"
	"repro/internal/cc"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/vm"
)

const src = `
int acc[8];
int mix(int a, int b) { int t = a * 3 + 1; int u = b ^ t; return u - a; }
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 8; i++) {
        acc[i] = mix(i, s);
        s += acc[i];
    }
    out(0, s);
    return 0;
}
`

func buildChin(t *testing.T) (*link.Image, chinchilla.Config) {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{StaticLocals: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instrument.Apply(prog, instrument.ForChinchilla()); err != nil {
		t.Fatal(err)
	}
	cfg := chinchilla.Config{}
	img, err := link.Link(prog, chinchilla.Spec(cfg, prog))
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg
}

func runChin(t *testing.T, img *link.Image, cfg chinchilla.Config, p power.Source) vm.Result {
	t.Helper()
	rt, err := chinchilla.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt, Power: p, AutoCpPeriodMs: 2, MaxCycles: 300_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChinchillaFailureSweep(t *testing.T) {
	img, cfg := buildChin(t)
	oracle := runChin(t, img, cfg, power.Continuous{})
	if !oracle.Completed {
		t.Fatalf("oracle: %+v", oracle)
	}
	for k := int64(7000); k >= 2500; k -= 77 {
		res := runChin(t, img, cfg, &power.FailEvery{Cycles: k, OffMs: 2})
		if !res.Completed {
			t.Fatalf("k=%d: starved=%v failures=%d", k, res.Starved, res.Failures)
		}
		if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
			t.Fatalf("k=%d: %v != %v", k, res.OutLog, oracle.OutLog)
		}
	}
}

func TestChinchillaRequiresStaticLocals(t *testing.T) {
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, chinchilla.Spec(chinchilla.Config{}, prog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chinchilla.New(img, chinchilla.Config{}); err == nil ||
		!strings.Contains(err.Error(), "static locals") {
		t.Fatalf("accepted a stack build: %v", err)
	}
}

func TestChinchillaSkipHeuristic(t *testing.T) {
	img, cfg := buildChin(t)
	res := runChin(t, img, cfg, power.Continuous{})
	rt := res.RuntimeStats
	if rt["skipped-triggers"] == 0 {
		t.Fatalf("skip heuristic never engaged: %v", rt)
	}
}
