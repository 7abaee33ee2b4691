package taskrt_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/instrument"
	"repro/internal/link"
	"repro/internal/power"
	"repro/internal/taskrt"
	"repro/internal/timekeeper"
	"repro/internal/vm"
)

const taskSrc = `
int k;
int acc;

void t_produce() {
    acc += k * 3 + 1;
    k++;
    if (k < 10) { transition_to(0); }
    transition_to(1);
}

void t_report() {
    out(0, acc);
    out(1, k);
    transition_to(99);
}

int main() { return 0; }
`

func buildTask(t *testing.T, src string, cfg taskrt.Config) (*link.Image, taskrt.Config) {
	t.Helper()
	prog, err := cc.Compile(src, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instrument.Apply(prog, instrument.ForTask()); err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, taskrt.Spec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg
}

func runTask(t *testing.T, img *link.Image, cfg taskrt.Config, p power.Source, clock timekeeper.Keeper) vm.Result {
	t.Helper()
	rt, err := taskrt.New(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt, Power: p, Clock: clock, MaxCycles: 300_000_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTaskEngineFailureSweep(t *testing.T) {
	for _, kind := range []taskrt.Kind{taskrt.Alpaca, taskrt.InK} {
		cfg := taskrt.Config{Kind: kind, Tasks: []string{"t_produce", "t_report"}}
		img, cfg := buildTask(t, taskSrc, cfg)
		oracle := runTask(t, img, cfg, power.Continuous{}, nil)
		if !oracle.Completed || oracle.OutLog[0][0] != 145 || oracle.OutLog[1][0] != 10 {
			t.Fatalf("%v oracle: %+v", kind, oracle.OutLog)
		}
		for k := int64(5000); k >= 1200; k -= 53 {
			res := runTask(t, img, cfg, &power.FailEvery{Cycles: k, OffMs: 2}, nil)
			if !res.Completed {
				t.Fatalf("%v k=%d: starved=%v", kind, k, res.Starved)
			}
			if !reflect.DeepEqual(res.OutLog, oracle.OutLog) {
				t.Fatalf("%v k=%d: %v != %v", kind, k, res.OutLog, oracle.OutLog)
			}
		}
	}
}

func TestTaskRestartsCountAsRestores(t *testing.T) {
	cfg := taskrt.Config{Kind: taskrt.Alpaca, Tasks: []string{"t_produce", "t_report"}}
	img, cfg := buildTask(t, taskSrc, cfg)
	res := runTask(t, img, cfg, &power.FailEvery{Cycles: 2500, OffMs: 2}, nil)
	if !res.Completed || res.RuntimeStats["task-restarts"] == 0 {
		t.Fatalf("restarts: %+v %v", res.Completed, res.RuntimeStats)
	}
}

func TestMayflyGraphValidation(t *testing.T) {
	cfg := taskrt.Config{
		Kind:  taskrt.MayFly,
		Tasks: []string{"t_produce", "t_report"},
		Edges: []taskrt.Edge{{From: 0, To: 0}},
	}
	if err := taskrt.Validate(cfg, false, false); err == nil ||
		!strings.Contains(err.Error(), "acyclic") {
		t.Fatalf("self-edge accepted: %v", err)
	}
	cfg.Edges = []taskrt.Edge{{From: 0, To: 1}, {From: 1, To: 0}}
	if err := taskrt.Validate(cfg, false, false); err != nil {
		t.Fatalf("restart edge rejected: %v", err)
	}
	if err := taskrt.Validate(cfg, true, false); err == nil {
		t.Fatal("recursion accepted")
	}
	if err := taskrt.Validate(cfg, false, true); err == nil {
		t.Fatal("pointers accepted")
	}
}

const mayflySrc = `
int token;
int consumed;
int refreshes;

void t_sense() {
    token = token + 1;
    transition_to(1);
}

void t_use() {
    consumed++;
    if (consumed < 3) { transition_to(0); }
    out(0, consumed);
    out(1, token);
    transition_to(99);
}

int main() { return 0; }
`

// TestMayflyTokenExpiry: a long outage between producer and consumer makes
// the inbound token stale; the runtime must reroute to the producer
// instead of consuming.
func TestMayflyTokenExpiry(t *testing.T) {
	cfg := taskrt.Config{
		Kind:  taskrt.MayFly,
		Tasks: []string{"t_sense", "t_use"},
		Edges: []taskrt.Edge{
			{From: 0, To: 1, ExpireMs: 50, OnExpired: 0},
			{From: 1, To: 0},
		},
	}
	img, cfg := buildTask(t, mayflySrc, cfg)

	// Continuous power: no expirations.
	res := runTask(t, img, cfg, power.Continuous{}, nil)
	if !res.Completed || res.RuntimeStats["expired-tokens"] != 0 {
		t.Fatalf("continuous run expired tokens: %v", res.RuntimeStats)
	}

	// Long off-times between tiny windows: tokens expire and the flow is
	// rerouted to the producer, so the producer runs more often than the
	// consumer commits.
	res = runTask(t, img, cfg, &power.FailEvery{Cycles: 2000, OffMs: 200}, nil)
	if !res.Completed {
		t.Fatalf("expiry run: %+v", res)
	}
	if res.RuntimeStats["expired-tokens"] == 0 {
		t.Fatalf("no tokens expired under 200 ms outages: %v", res.RuntimeStats)
	}
	token, consumed := res.OutLog[1][0], res.OutLog[0][0]
	if token <= consumed {
		t.Fatalf("expected reruns of the producer: token=%d consumed=%d", token, consumed)
	}
}

func TestTaskConfigErrors(t *testing.T) {
	prog, err := cc.Compile(taskSrc, cc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := link.Link(prog, taskrt.Spec(taskrt.Config{Tasks: []string{"t_produce"}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := taskrt.New(img, taskrt.Config{}); err == nil {
		t.Fatal("no tasks accepted")
	}
	if _, err := taskrt.New(img, taskrt.Config{Tasks: []string{"nope"}}); err == nil {
		t.Fatal("unknown task accepted")
	}
}
