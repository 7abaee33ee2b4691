package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestRingRetainsTailAndCountsDrops(t *testing.T) {
	r := NewRecorder(Options{RingCap: 4})
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvSend, Cycles: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Cycles != int64(6+i) {
			t.Fatalf("event %d has cycles %d, want %d (oldest-first tail)", i, ev.Cycles, 6+i)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	if r.Metrics().Counter("sends") != 10 {
		t.Fatalf("metrics must be exact despite drops: sends=%d", r.Metrics().Counter("sends"))
	}
}

func TestMaskFiltersRingNotMetrics(t *testing.T) {
	r := NewRecorder(Options{Keep: MaskOf(EvCheckpointCommit)})
	r.Emit(Event{Kind: EvUndoAppend})
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 5})
	if n := len(r.Events()); n != 1 {
		t.Fatalf("ring kept %d events, want 1", n)
	}
	if r.Metrics().Counter("undo_appends") != 1 {
		t.Fatal("filtered kinds must still update metrics")
	}
	if r.CountKind(EvCheckpointCommit) != 1 {
		t.Fatal("kept kind missing from ring")
	}
}

func TestCounterSnapshotIsDefensive(t *testing.T) {
	g := NewRegistry()
	g.Inc("x")
	snap := g.CounterSnapshot()
	snap["x"] = 999
	snap["injected"] = 1
	if g.Counter("x") != 1 {
		t.Fatalf("mutating the snapshot corrupted the live counter: %d", g.Counter("x"))
	}
	if g.Counter("injected") != 0 {
		t.Fatal("snapshot writes leaked into the registry")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1} // <=10, <=100, overflow
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Count != 4 || h.Min != 1 || h.Max != 1000 {
		t.Fatalf("summary stats: %+v", h)
	}
	if h.Mean() != (1+10+11+1000)/4.0 {
		t.Fatalf("mean %g", h.Mean())
	}
}

func TestRegistryDumpIsDeterministic(t *testing.T) {
	g := NewRegistry()
	g.Inc("b")
	g.Inc("a")
	g.Observe("lat", 3)
	var b1, b2 bytes.Buffer
	g.Dump(&b1)
	g.Dump(&b2)
	if b1.String() != b2.String() {
		t.Fatal("two dumps of the same registry differ")
	}
	if strings.Index(b1.String(), "counter a") > strings.Index(b1.String(), "counter b") {
		t.Fatalf("counters not sorted:\n%s", b1.String())
	}
}

func TestCategoryPartition(t *testing.T) {
	r := NewRecorder(Options{Profile: true})
	r.OnSpend(10) // app
	r.PushCategory(CatCheckpoint)
	r.OnSpend(7)
	r.PopCategory()
	r.OnSpend(3) // app again, then a power failure strikes
	r.OnPowerFail()
	r.PushCategory(CatRestore)
	r.OnSpend(5)
	r.PopCategory()
	r.OnSpend(2)
	r.Finish()
	p := r.Profile()
	if p.ByCategory[CatDead.String()] != 20 {
		t.Fatalf("dead = %d, want 20 (all pre-failure work)", p.ByCategory[CatDead.String()])
	}
	if p.ByCategory[CatRestore.String()] != 5 || p.ByCategory[CatApp.String()] != 2 {
		t.Fatalf("partition: %v", p.ByCategory)
	}
	if p.TotalCycles() != 27 {
		t.Fatalf("total %d, want 27", p.TotalCycles())
	}
	if got := p.ReexecRatio(); got != 20.0/27.0 {
		t.Fatalf("reexec ratio %g", got)
	}
}

func TestProfileIncludesPendingCycles(t *testing.T) {
	r := NewRecorder(Options{Profile: true})
	r.OnSpend(4)
	// No Finish: a mid-run snapshot must still account every cycle.
	if r.Profile().TotalCycles() != 4 {
		t.Fatalf("pending cycles missing from snapshot: %d", r.Profile().TotalCycles())
	}
}

func TestShadowStackFolding(t *testing.T) {
	r := NewRecorder(Options{Profile: true})
	r.SetFunctions([]string{"main", "leaf"})
	r.OnSpend(1)   // boot stub
	r.EnterFunc(0) // main
	r.OnSpend(2)
	r.EnterFunc(1) // leaf
	r.OnSpend(3)
	r.LeaveFunc()
	r.OnSpend(4)
	r.Finish()
	p := r.Profile()
	if p.Folded["(device)"] != 1 || p.Folded["(device);main"] != 6 || p.Folded["(device);main;leaf"] != 3 {
		t.Fatalf("folded: %v", p.Folded)
	}
	if p.ByFunction["main"] != 6 || p.ByFunction["leaf"] != 3 || p.ByFunction["(stub)"] != 1 {
		t.Fatalf("by function: %v", p.ByFunction)
	}
	// A restore re-roots the stack at the live function.
	r.ResetStack(1)
	r.OnSpend(9)
	if r.Profile().Folded["(device);leaf"] != 9 {
		t.Fatalf("re-rooted folding: %v", r.Profile().Folded)
	}
}

func TestCheckpointLatencyPairing(t *testing.T) {
	r := NewRecorder(Options{})
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 100, Arg1: 64})
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 140})
	evs := r.Events()
	if evs[1].Arg1 != 40 {
		t.Fatalf("commit latency %d, want 40", evs[1].Arg1)
	}
	h := r.Metrics().Histogram("checkpoint_latency_cycles")
	if h.Count != 1 || h.Sum != 40 {
		t.Fatalf("latency histogram: %+v", h)
	}
	if s := r.Metrics().Histogram("checkpoint_size_bytes"); s.Count != 1 || s.Sum != 64 {
		t.Fatalf("size histogram: %+v", s)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(Options{})
	r.Emit(Event{Kind: EvBoot, Arg0: 1})
	r.Emit(Event{Kind: EvSend, Cycles: 10, TrueMs: 0.01, Arg0: 42})
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["kind"] != "send" || obj["arg0"] != float64(42) {
		t.Fatalf("line: %v", obj)
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := NewRecorder(Options{})
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 0, TrueMs: 1})
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 50, TrueMs: 1.05})
	r.Emit(Event{Kind: EvISREnter, TrueMs: 2})
	r.Emit(Event{Kind: EvISRExit, TrueMs: 2.1})
	r.Emit(Event{Kind: EvPowerFail, TrueMs: 3})
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
			DurUs float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid trace JSON: %v", err)
	}
	byName := map[string]string{}
	for _, te := range doc.TraceEvents {
		byName[te.Name+"/"+te.Phase] = te.Name
		if te.Name == "checkpoint" && te.Phase == "X" && te.DurUs != 50 {
			t.Fatalf("checkpoint duration %g µs, want 50", te.DurUs)
		}
	}
	for _, want := range []string{"checkpoint/X", "isr/B", "isr/E", "power-failure/i", "process_name/M"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing %s in %v", want, byName)
		}
	}
}

func TestWriteFolded(t *testing.T) {
	p := Profile{Folded: map[string]int64{"(device);main": 7, "(device)": 0, "(device);a": 1}}
	var b bytes.Buffer
	if err := p.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "(device);a 1\n(device);main 7\n" {
		t.Fatalf("folded output:\n%s", b.String())
	}
}

// TestDroppedExportedThroughRegistry: ring overflow is visible to a
// metrics scrape, not just to callers holding the Recorder — alongside
// the ring capacity gauge, so "ring too small" is diagnosable remotely.
func TestDroppedExportedThroughRegistry(t *testing.T) {
	r := NewRecorder(Options{RingCap: 4})
	if r.RingCap() != 4 {
		t.Fatalf("RingCap = %d, want 4", r.RingCap())
	}
	if got := r.Metrics().Gauge("trace_ring_cap"); got != 4 {
		t.Fatalf("trace_ring_cap gauge = %v, want 4", got)
	}
	if got := r.Metrics().Counter("trace_events_dropped"); got != 0 {
		t.Fatalf("dropped counter before overflow = %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: EvSend, Cycles: int64(i)})
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
	if got := r.Metrics().Counter("trace_events_dropped"); got != r.Dropped() {
		t.Fatalf("registry says %d dropped, recorder says %d", got, r.Dropped())
	}
}

func TestMergeProfiles(t *testing.T) {
	a := Profile{
		ByCategory: map[string]int64{"app": 10, "checkpoint": 2},
		ByFunction: map[string]int64{"main": 12},
		Folded:     map[string]int64{"main": 10, "main;ckpt": 2},
	}
	b := Profile{
		ByCategory: map[string]int64{"app": 5, "restore": 1},
		ByFunction: map[string]int64{"main": 5, "f": 1},
		Folded:     map[string]int64{"main": 5, "main;f": 1},
	}
	m := MergeProfiles(a, b)
	if m.ByCategory["app"] != 15 || m.ByCategory["checkpoint"] != 2 || m.ByCategory["restore"] != 1 {
		t.Fatalf("ByCategory merge wrong: %v", m.ByCategory)
	}
	if m.ByFunction["main"] != 17 || m.ByFunction["f"] != 1 {
		t.Fatalf("ByFunction merge wrong: %v", m.ByFunction)
	}
	if m.Folded["main"] != 15 || m.Folded["main;ckpt"] != 2 || m.Folded["main;f"] != 1 {
		t.Fatalf("Folded merge wrong: %v", m.Folded)
	}
	// Merging zero profiles yields an empty, usable profile.
	empty := MergeProfiles()
	if len(empty.ByCategory) != 0 || empty.ByCategory == nil {
		t.Fatalf("empty merge: %+v", empty)
	}
	// Inputs are not aliased by the merge.
	m.ByCategory["app"] = 999
	if a.ByCategory["app"] != 10 || b.ByCategory["app"] != 5 {
		t.Fatal("merge aliased an input map")
	}
}

// driveRecorder emits one salted run into r: events of every metric
// kind (the ring of 4 overflows), nested categories, a power failure that
// kills pending cycles, and trailing work flushed by Finish.
func driveRecorder(r *Recorder, salt int64) {
	r.SetFunctions([]string{"main", "leaf"})
	r.EnterFunc(0)
	r.OnSpend(10 + salt)
	r.Emit(Event{Kind: EvBoot, Cycles: salt, Arg0: 1})
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 20 + salt, Arg1: 64})
	r.PushCategory(CatCheckpoint)
	r.OnSpend(5)
	r.PopCategory()
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 90 + salt})
	r.OnCommit()
	r.EnterFunc(1)
	r.OnSpend(7 * salt)
	r.Emit(Event{Kind: EvUndoAppend, Cycles: 95 + salt, Arg0: 0x200, Arg1: 4})
	r.Emit(Event{Kind: EvPowerFail, Cycles: 100 + salt})
	r.OnPowerFail()
	r.Emit(Event{Kind: EvUndoRollback, Cycles: 120 + salt, Arg0: 3})
	r.Metrics().Observe("undo_len_per_epoch", float64(salt))
	r.Emit(Event{Kind: EvSend, Cycles: 130 + salt, Arg0: salt})
	r.EnterFunc(0)
	r.OnSpend(2 + salt)
	r.Finish()
}

// TestResetEqualsFresh: a recorder reused through Reset is
// indistinguishable from a fresh one after the same emissions — events,
// drop count, Seq, every counter and histogram, the profile — however
// dirty it was before, ring overflow and an open checkpoint included.
func TestResetEqualsFresh(t *testing.T) {
	opts := Options{RingCap: 4, Profile: true}
	drive := driveRecorder
	var sinkSeqs []int64
	sink := sinkFunc(func(seq int64, _ Event) { sinkSeqs = append(sinkSeqs, seq) })

	reused := NewRecorder(opts)
	reused.AddSink(sink)
	drive(reused, 3)
	reused.Emit(Event{Kind: EvCheckpointBegin, Cycles: 500}) // left open across the reset
	reused.Reset()
	sinkSeqs = nil
	drive(reused, 1)
	if len(sinkSeqs) != 0 {
		t.Fatalf("Reset kept the previous owner's sink: it saw %d events", len(sinkSeqs))
	}

	fresh := NewRecorder(opts)
	drive(fresh, 1)

	if reused.Seq() != fresh.Seq() || reused.Dropped() != fresh.Dropped() {
		t.Fatalf("seq/dropped: reused %d/%d, fresh %d/%d", reused.Seq(), reused.Dropped(), fresh.Seq(), fresh.Dropped())
	}
	evR, _ := json.Marshal(reused.Events())
	evF, _ := json.Marshal(fresh.Events())
	if string(evR) != string(evF) {
		t.Fatalf("events differ:\nreused %s\nfresh  %s", evR, evF)
	}
	var dumpR, dumpF bytes.Buffer
	reused.Metrics().Dump(&dumpR)
	fresh.Metrics().Dump(&dumpF)
	if dumpR.String() != dumpF.String() {
		t.Fatalf("metrics differ:\nreused\n%s\nfresh\n%s", dumpR.String(), dumpF.String())
	}
	for _, name := range []string{"checkpoint_latency_cycles", "checkpoint_size_bytes", "cycles_between_failures", "undo_len_per_epoch"} {
		hr := fmt.Sprintf("%+v", *reused.Metrics().Histogram(name))
		hf := fmt.Sprintf("%+v", *fresh.Metrics().Histogram(name))
		if hr != hf {
			t.Fatalf("histogram %s differs:\nreused %s\nfresh  %s", name, hr, hf)
		}
	}
	pr, _ := json.Marshal(reused.Profile())
	pf, _ := json.Marshal(fresh.Profile())
	if string(pr) != string(pf) {
		t.Fatalf("profile differs:\nreused %s\nfresh  %s", pr, pf)
	}
}

type sinkFunc func(seq int64, ev Event)

func (f sinkFunc) OnEvent(seq int64, ev Event) { f(seq, ev) }

// TestRearmFoldsLikeMerge: runs folded through one recorder, rearmed
// between them, record exactly what one fresh recorder per run merged
// would — metrics (Dump and Prometheus, trace_ring_cap included), drop
// count and profile — while seq, events and sinks start over per run.
func TestRearmFoldsLikeMerge(t *testing.T) {
	opts := Options{RingCap: 4, Profile: true}
	var sinkSeqs []int64
	sink := sinkFunc(func(seq int64, _ Event) { sinkSeqs = append(sinkSeqs, seq) })

	folded := NewRecorder(opts)
	folded.AddSink(sink)
	driveRecorder(folded, 3)
	folded.Emit(Event{Kind: EvCheckpointBegin, Cycles: 500}) // left open across the rearm
	folded.Rearm()
	sinkSeqs = nil
	driveRecorder(folded, 1)
	if len(sinkSeqs) != 0 {
		t.Fatalf("Rearm kept the previous run's sink: it saw %d events", len(sinkSeqs))
	}

	first, second := NewRecorder(opts), NewRecorder(opts)
	driveRecorder(first, 3)
	first.Emit(Event{Kind: EvCheckpointBegin, Cycles: 500})
	driveRecorder(second, 1)
	merged := NewRegistry()
	for _, r := range []*Recorder{first, second} {
		if err := merged.Merge(r.Metrics()); err != nil {
			t.Fatal(err)
		}
	}

	if folded.Seq() != second.Seq() {
		t.Fatalf("seq %d, want the second run's %d", folded.Seq(), second.Seq())
	}
	if got, want := folded.Dropped(), first.Dropped()+second.Dropped(); got != want {
		t.Fatalf("dropped %d, want %d", got, want)
	}
	evF, _ := json.Marshal(folded.Events())
	evS, _ := json.Marshal(second.Events())
	if string(evF) != string(evS) {
		t.Fatalf("events differ:\nfolded %s\nsecond %s", evF, evS)
	}
	var dumpF, dumpM, promF, promM bytes.Buffer
	folded.Metrics().Dump(&dumpF)
	merged.Dump(&dumpM)
	if dumpF.String() != dumpM.String() {
		t.Fatalf("metrics differ:\nfolded\n%s\nmerged\n%s", dumpF.String(), dumpM.String())
	}
	if err := folded.Metrics().WritePrometheus(&promF); err != nil {
		t.Fatal(err)
	}
	if err := merged.WritePrometheus(&promM); err != nil {
		t.Fatal(err)
	}
	if promF.String() != promM.String() {
		t.Fatalf("Prometheus text differs:\nfolded\n%s\nmerged\n%s", promF.String(), promM.String())
	}
	if got := folded.Metrics().Gauge("trace_ring_cap"); got != 8 {
		t.Fatalf("trace_ring_cap %g after two armed runs of a 4-slot ring, want 8", got)
	}
	pF, _ := json.Marshal(folded.Profile())
	pM, _ := json.Marshal(MergeProfiles(first.Profile(), second.Profile()))
	if string(pF) != string(pM) {
		t.Fatalf("profile differs:\nfolded %s\nmerged %s", pF, pM)
	}

	// Reset is Rearm plus zeroing: the ring gauge is back to one ring.
	folded.Reset()
	if got := folded.Metrics().Gauge("trace_ring_cap"); got != 4 {
		t.Fatalf("trace_ring_cap %g after Reset, want 4", got)
	}
}

// TestLazyCounterRegistersOnFirstInc: a LazyCounter's name stays out of
// the registry until its first increment, then counts through one cell.
func TestLazyCounterRegistersOnFirstInc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Lazy("stores")
	if _, ok := reg.CounterSnapshot()["stores"]; ok {
		t.Fatal("counter registered before its first increment")
	}
	c.Inc()
	c.Inc()
	reg.Inc("stores")
	if got := reg.CounterSnapshot()["stores"]; got != 3 {
		t.Fatalf("stores = %d, want 3", got)
	}
}
