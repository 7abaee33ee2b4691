package experiments_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/survey"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "fig8", "fig9", "fig10", "ablations"}
	reg := experiments.Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("Find(%s) failed", id)
		}
	}
	if _, ok := experiments.Find("nope"); ok {
		t.Fatal("Find accepted an unknown id")
	}
}

// TestExperimentsGolden pins every artifact byte for byte: the output
// equals `ticsbench -experiment all`, committed as
// testdata/experiments.golden (regenerate it with that command).
func TestExperimentsGolden(t *testing.T) {
	reports, err := experiments.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(reports))
	for i, r := range reports {
		texts[i] = r.Text + "\n"
	}
	got := strings.Join(texts, strings.Repeat("=", 78)+"\n")
	want, err := os.ReadFile("../../testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d drifted from testdata/experiments.golden:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// TestTable1Shape: the paper's central Table 1 claim — only the TICS
// variants execute the GHM routines in lock step below 100% intermittency;
// at 100% everything is consistent.
func TestTable1Shape(t *testing.T) {
	rep, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Data["rows"].([]experiments.Table1Row)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		isTICS := strings.Contains(r.Variant, "TICS")
		switch {
		case r.Rate >= 1:
			if !r.Consistent {
				t.Fatalf("continuous power inconsistent: %+v", r)
			}
		case isTICS:
			if !r.Consistent {
				t.Fatalf("TICS inconsistent at %.0f%%: %+v", r.Rate*100, r)
			}
		default:
			if r.Consistent {
				t.Fatalf("unprotected legacy code consistent at %.0f%%: %+v", r.Rate*100, r)
			}
		}
		if at := r.Counts; len(at) != 4 || at[0] == 0 {
			t.Fatalf("no progress: %+v", r)
		}
	}
}

// TestTable2Shape: TICS eliminates every violation class; the manual
// baseline exhibits all three.
func TestTable2Shape(t *testing.T) {
	rep, err := experiments.Table2()
	if err != nil {
		t.Fatal(err)
	}
	manual := rep.Data["manual"].(experiments.Table2Result)
	withTICS := rep.Data["tics"].(experiments.Table2Result)
	if withTICS.TimelyBranch.Observed != 0 ||
		withTICS.Misalignment.Observed != 0 ||
		withTICS.Expiration.Observed != 0 {
		t.Fatalf("TICS produced violations: %+v", withTICS)
	}
	if manual.TimelyBranch.Observed == 0 ||
		manual.Misalignment.Observed == 0 ||
		manual.Expiration.Observed == 0 {
		t.Fatalf("manual baseline clean — nothing to eliminate: %+v", manual)
	}
	if manual.Failures == 0 || withTICS.Failures == 0 {
		t.Fatal("the harvested-power runs saw no failures")
	}
}

// TestTable3Shape: Chinchilla dominates both sections; TICS has the
// smallest RAM footprint.
func TestTable3Shape(t *testing.T) {
	rep, err := experiments.Table3()
	if err != nil {
		t.Fatal(err)
	}
	cells := rep.Data["cells"].([]experiments.Table3Cell)
	byApp := map[string]map[string]experiments.Table3Cell{}
	for _, c := range cells {
		app := strings.TrimSuffix(c.App, "*")
		if byApp[app] == nil {
			byApp[app] = map[string]experiments.Table3Cell{}
		}
		byApp[app][c.Runtime] = c
	}
	for app, m := range byApp {
		tics, chin, ink := m["TICS"], m["Chinchilla"], m["InK"]
		if tics.Err != "" || chin.Err != "" || ink.Err != "" {
			t.Fatalf("%s: build errors: %+v", app, m)
		}
		if !(chin.Text > tics.Text) {
			t.Fatalf("%s: Chinchilla .text %d not above TICS %d", app, chin.Text, tics.Text)
		}
		// Core ordering: both competitors carry far more RAM than TICS.
		// (Chinchilla-vs-InK absolute ordering is not asserted: the paper's
		// Chinchilla blow-up is driven by per-callsite inline duplication,
		// which our non-inlining compiler cannot reproduce — see
		// EXPERIMENTS.md.)
		if ink.Data <= tics.Data {
			t.Fatalf("%s: InK .data %d not above TICS %d", app, ink.Data, tics.Data)
		}
		if chin.Data < 3*tics.Data {
			t.Fatalf("%s: Chinchilla .data %d not ≫ TICS %d (paper: ~6x; ours ~4x, see EXPERIMENTS.md)", app, chin.Data, tics.Data)
		}
	}
}

// TestTable4Calibration: the measured runtime-operation costs must land in
// the paper's ballpark.
func TestTable4Calibration(t *testing.T) {
	rep, err := experiments.Table4()
	if err != nil {
		t.Fatal(err)
	}
	ms := rep.Data["measurements"].([]experiments.Table4Measurement)
	get := func(op, cfg string) int64 {
		for _, m := range ms {
			if m.Operation == op && m.Config == cfg {
				return m.Cycles
			}
		}
		t.Fatalf("no measurement %s/%s", op, cfg)
		return 0
	}
	if v := get("Pointer access", "no log (4 B)"); v != 13 {
		t.Fatalf("unlogged store %d, paper 13", v)
	}
	if v := get("Pointer access", "log 4 B"); v != 308 {
		t.Fatalf("logged store %d, paper 308", v)
	}
	if v := get("Roll back from undo log", "4 B"); v != 234 {
		t.Fatalf("rollback %d, paper 234", v)
	}
	if v := get("Stack grow", "excl. checkpoint"); v < 300 || v > 420 {
		t.Fatalf("grow %d, paper ~345", v)
	}
	// Checkpoint cost grows with segment size.
	var prev int64
	for _, m := range ms {
		if m.Operation == "Checkpoint logic" {
			if m.Cycles <= prev {
				t.Fatalf("checkpoint cost not monotone: %+v", ms)
			}
			prev = m.Cycles
		}
	}
}

// TestTable5Shape: only TICS supports everything; every probe column is
// genuine (derived from compiling real programs).
func TestTable5Shape(t *testing.T) {
	rep, err := experiments.Table5()
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Data["rows"].([]experiments.Table5Row)
	byName := map[string]experiments.Table5Row{}
	for _, r := range rows {
		byName[r.Runtime] = r
	}
	tics := byName["TICS (this work)"]
	if !tics.Pointers || !tics.Recursion || !tics.Scalable || !tics.Timely || tics.Porting != "none" {
		t.Fatalf("TICS row: %+v", tics)
	}
	for _, name := range []string{"MayFly", "Alpaca", "InK"} {
		r := byName[name]
		if r.Pointers || r.Recursion || r.Porting != "high" {
			t.Fatalf("%s row: %+v", name, r)
		}
	}
	chin := byName["Chinchilla"]
	if !chin.Pointers || chin.Recursion {
		t.Fatalf("Chinchilla row: %+v", chin)
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := experiments.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	fresh := rep.Data["fresh"].(int)
	stale := rep.Data["stale"].(int)
	if fresh == 0 || stale == 0 {
		t.Fatalf("fig8 should show both outcomes: fresh=%d stale=%d", fresh, stale)
	}
	if fresh+stale != 30 {
		t.Fatalf("rounds: %d+%d != 30", fresh, stale)
	}
}

// TestFig9Shape: the qualitative performance ordering of the paper.
func TestFig9Shape(t *testing.T) {
	rep, err := experiments.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	points := rep.Data["points"].([]experiments.Fig9Point)
	get := func(app, config string) experiments.Fig9Point {
		for _, p := range points {
			if p.App == app && p.Config == config {
				return p
			}
		}
		t.Fatalf("no point %s/%s", app, config)
		return experiments.Fig9Point{}
	}
	// Chinchilla cannot run BC; MayFly cannot run CF.
	if get("bc", "chinchilla-O2").Err == "" {
		t.Fatal("Chinchilla compiled recursive BC")
	}
	if get("cf", "mayfly").Err == "" {
		t.Fatal("MayFly accepted CF")
	}
	for _, app := range []string{"ar", "bc", "cf"} {
		plain := get(app, "plain").Cycles
		naive := get(app, "naive").Cycles
		ticsS2 := get(app, "TICS-S2*").Cycles
		alpaca := get(app, "alpaca").Cycles
		if naive <= ticsS2 {
			t.Fatalf("%s: naive (%d) not above TICS (%d)", app, naive, ticsS2)
		}
		if ticsS2 <= plain/2 {
			t.Fatalf("%s: TICS (%d) implausibly below plain (%d)", app, ticsS2, plain)
		}
		if alpaca >= naive {
			t.Fatalf("%s: alpaca (%d) not below naive (%d)", app, alpaca, naive)
		}
	}
	// O2 never slower than O0 for TICS.
	for _, app := range []string{"ar", "bc", "cf"} {
		if o2, o0 := get(app, "tics-O2").Cycles, get(app, "tics-O0").Cycles; o2 > o0 {
			t.Fatalf("%s: O2 (%d) slower than O0 (%d)", app, o2, o0)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rep, err := experiments.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Data["result"].(survey.Result)
	if res.Wilcoxon.P >= 0.001 {
		t.Fatalf("p = %g", res.Wilcoxon.P)
	}
}

// TestAblationsShape pins the direction of each ablation's effect.
func TestAblationsShape(t *testing.T) {
	rep, err := experiments.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	points := rep.Data["points"].([]experiments.AblationPoint)
	get := func(study, config string) experiments.AblationPoint {
		for _, p := range points {
			if p.Study == study && p.Config == config {
				return p
			}
		}
		t.Fatalf("no point %s/%s", study, config)
		return experiments.AblationPoint{}
	}
	// Minimum segments checkpoint far more often than 512 B ones.
	small := get("segment-size", "40B")
	if small.Config == "" { // the program minimum may shift with app edits
		small = points[0]
	}
	big := get("segment-size", "512B")
	if small.Checkpoints <= 2*big.Checkpoints {
		t.Fatalf("segment sweep lost its effect: %d vs %d checkpoints", small.Checkpoints, big.Checkpoints)
	}
	// Block-granularity logging reduces both entries and cycles on CF.
	word := get("undo-granularity", "4B")
	block := get("undo-granularity", "32B")
	if block.Extra["dedup"] == 0 || block.Cycles >= word.Cycles {
		t.Fatalf("block logging ineffective: %+v vs %+v", block, word)
	}
	// Differential checkpoints are cheaper on this workload.
	fixed := get("differential", "fixed (whole segment)")
	diff := get("differential", "differential (used tail)")
	if diff.Cycles >= fixed.Cycles {
		t.Fatalf("differential not cheaper: %d vs %d", diff.Cycles, fixed.Cycles)
	}
	// A ±50% remanence clock flips freshness verdicts vs the perfect clock.
	perfect := get("timekeeper", "perfect")
	sloppy := get("timekeeper", "remanence ±50%")
	if perfect.Extra["fresh"] == sloppy.Extra["fresh"] && perfect.Extra["stale"] == sloppy.Extra["stale"] {
		t.Fatal("clock error had no observable effect")
	}
}
