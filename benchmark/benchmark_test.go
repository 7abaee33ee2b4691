package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var gateBin struct {
	once sync.Once
	path string
	err  error
}

func ticsgateBinary(t *testing.T) string {
	t.Helper()
	gateBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "ticsgate-test-")
		if err != nil {
			gateBin.err = err
			return
		}
		gateBin.path, gateBin.err = buildTicsgate(dir)
	})
	if gateBin.err != nil {
		t.Fatal(gateBin.err)
	}
	return gateBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if gateBin.path != "" {
		os.RemoveAll(filepath.Dir(gateBin.path))
	}
	os.Exit(code)
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program defines %d", kind, len(got), len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// smoke runs one workload's smoke profile and checks its printed report:
// every metric of BENCHMARK.json that the run reports, with its unit, and
// a last line holding exactly the keys correct, attempted, failed and
// metrics.
func smoke(t *testing.T, w string, seed uint64, trace bool, refs references) (*run, resultLine) {
	t.Helper()
	o := options{workload: w, seed: seed, trace: trace, smoke: true, ticsgate: ticsgateBinary(t), out: t.TempDir()}
	r, err := runWorkload(o, refs)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w, seed, err)
	}
	var out bytes.Buffer
	if err := r.report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if fs := strings.Fields(l); len(fs) >= 4 && fs[0] == w && fs[1] != "layer" && fs[1] != "witness" {
			units[fs[1]] = fs[3]
		}
	}
	f := readBenchmarkFile(t)
	want := f.EndToEnd
	if trace {
		want = f.PerLayer
		for _, m := range f.EndToEnd {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: printed %s with unit %q, want %q", w, m.Name, units[m.Name], m.Unit)
			}
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", w, err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("%s: last line keys %v, want correct, attempted, failed, metrics", w, last)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, want %d", w, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: printed %s with unit %q, want %q", w, m.Name, units[m.Name], m.Unit)
		}
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: result line has %s = %+v, want unit %q", w, m.Name, got, m.Unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", w, res.Attempted)
	}
	return r, res
}

// TestSmoke runs every workload on seeds 1 and 7, traced and untraced.
func TestSmoke(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	digests := map[uint64]string{}
	for _, seed := range []uint64{1, 7} {
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				r, res := smoke(t, w, seed, trace, refs)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("%s seed %d trace %v: %d of %d operations failed", w, seed, trace, res.Failed, res.Attempted)
				}
				if trace && w == "fleet-ghm-traced" {
					digests[seed] = r.witness["digests_sha256"]
				}
			}
		}
	}
	if digests[1] == "" || digests[1] == digests[7] {
		t.Errorf("fleet digests of seeds 1 and 7 should differ: %q, %q", digests[1], digests[7])
	}
}

// TestInjectedMismatchFails stores a wrong reference digest: the run must
// count it as failed and report itself incorrect.
func TestInjectedMismatchFails(t *testing.T) {
	refs := references{"smoke": {"1": {
		"device-mix":  {"digests_sha256": "0000"},
		"gate-ingest": {"warmup_digest": "0000"},
	}}}
	for _, w := range []string{"device-mix", "gate-ingest"} {
		_, res := smoke(t, w, 1, false, refs)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d after a digest mismatch, want false and 1", w, res.Correct, res.Failed)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", ID: 1, Start: 0, End: 100},
		{Name: "run", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "run", ID: 3, Parent: 1, Start: 40, End: 70}, // overlaps the first: two workers
		{Name: "run", ID: 4, Parent: 1, Start: 90, End: 120},
	}}
	own := map[string]int64{}
	for _, row := range tr.selfTimes() {
		own[row.name] = row.own
	}
	if own["pass"] != 100-60-10 || own["run"] != 40+30+30 {
		t.Errorf("self times %v, want pass 30 and run 100", own)
	}
}
