// Package obs is the flight recorder for the simulated intermittent
// machine: a structured event trace, a cycle-attributed profiler, and a
// small metrics registry, all dependency-free so every layer of the stack
// (vm, core, the baselines, the experiment harnesses) can emit into it
// without import cycles.
//
// The design goal is observability that is zero-cost when disabled: a
// machine without an attached recorder pays only a nil check per
// emission site, and a recorder never charges simulated cycles — it
// observes the device, it is not part of it (like ETAP-style host-side
// timing analysis, the trace is derived from the same deterministic cycle
// accounting the machine already does).
//
// Three views of one run:
//
//   - Events: a fixed-capacity ring of typed events (boot, power failure,
//     checkpoint begin/commit, restore, undo-log append/rollback, stack
//     grow/shrink, ISR enter/exit, send, expiry trap, task commit),
//     exportable as JSONL or Chrome/Perfetto trace_event JSON.
//   - Profile: every consumed cycle attributed twice — by overhead
//     category (app / checkpoint / restore / undo-log / dead) and by
//     function (with a shadow call stack for folded-stacks flame graphs).
//     The category totals partition the machine's total consumed cycles
//     exactly; "dead" is work that a power failure rolled back.
//   - Metrics: named counters and fixed-bucket histograms (checkpoint
//     latency and size, undo-log length per epoch, cycles between
//     failures) with deterministic, sorted dumps.
package obs

// EventKind classifies a recorded event.
type EventKind uint8

const (
	EvBoot             EventKind = iota // Arg0: 1 = cold boot
	EvPowerFail                         // Arg0: cycles lost since last commit; Arg1: failure ordinal
	EvCheckpointBegin                   // Arg0: checkpoint kind; Arg1: bytes captured
	EvCheckpointCommit                  // Arg0: checkpoint kind; Arg1: latency in cycles
	EvRestore                           // post-failure (or expiry) state restore completed
	EvUndoAppend                        // Arg0: logged address; Arg1: entry bytes
	EvUndoRollback                      // Arg0: entries rolled back
	EvStackGrow                         // Arg0: new working-segment index
	EvStackShrink                       // Arg0: new working-segment index
	EvISREnter                          // Arg0: interrupt ordinal
	EvISRExit                           //
	EvSend                              // Arg0: packet value; Arg1: 1 = virtualized (held to commit)
	EvExpiry                            // Arg0: missed deadline (device ms)
	EvTaskCommit                        // Arg0: next task index (task-based runtimes)
	evKindCount
)

var kindNames = [evKindCount]string{
	"boot", "power-failure", "checkpoint-begin", "checkpoint-commit",
	"restore", "undo-append", "undo-rollback", "stack-grow", "stack-shrink",
	"isr-enter", "isr-exit", "send", "expiry", "task-commit",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindByName is the inverse of EventKind.String — used when parsing an
// exported event stream back in (replay verification).
func KindByName(name string) (EventKind, bool) {
	for i, n := range kindNames {
		if n == name {
			return EventKind(i), true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. Cycles/TrueMs/DeviceMs snapshot the
// machine's cycle counter, true wall clock and persistent device clock at
// emission; Arg0/Arg1 are kind-specific (see the EventKind constants).
type Event struct {
	Kind     EventKind
	Cycles   int64
	TrueMs   float64
	DeviceMs int64
	Arg0     int64
	Arg1     int64
}

// Category buckets consumed cycles by what the machine was doing.
type Category uint8

const (
	// CatApp is program work (including per-store instrumentation checks).
	CatApp Category = iota
	// CatCheckpoint covers checkpoint capture/commit and stack grow/shrink.
	CatCheckpoint
	// CatRestore covers boot-time state reconstruction.
	CatRestore
	// CatUndoLog covers undo-log appends and rollbacks.
	CatUndoLog
	// CatDead is re-executed work: cycles attributed to any category that a
	// power failure struck before the next commit point. Never pushed
	// directly — the recorder reclassifies pending cycles on failure.
	CatDead
	catCount
)

var catNames = [catCount]string{"app", "checkpoint", "restore", "undo-log", "dead"}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// Options configures a recorder.
type Options struct {
	// RingCap bounds the event ring (default 65536). When full, the oldest
	// events are overwritten and Dropped() counts them.
	RingCap int
	// Profile enables cycle attribution (category, function, folded
	// stacks). Off, the recorder keeps only events and metrics.
	Profile bool
}

// Sink observes the full event stream online, as it is emitted. A sink
// sees every event — including those the ring later overwrites — in
// emission order, after the recorder has enriched it (e.g. the
// commit-latency Arg1). seq is the zero-based ordinal of the event in the
// run's complete stream. Sinks run synchronously inside Emit, so they may
// inspect the machine's state at the exact moment of the event; like the
// recorder itself they must never charge simulated cycles. The trace
// auditor (internal/audit) and the replay capture (internal/replay) are
// sinks.
type Sink interface {
	OnEvent(seq int64, ev Event)
}

// Recorder is one machine run's flight recorder. It is not safe for
// concurrent use; attach a fresh recorder per machine, Reset one between
// runs of a pooled machine, or Rearm one to fold many runs into a single
// registry and profile.
type Recorder struct {
	ring    []Event
	head    int // next write position
	n       int // filled entries
	dropped int64
	seq     int64
	sinks   []Sink

	reg *Registry

	profile bool
	funcs   []string // function names, index-aligned with the image

	catStack []Category
	pending  [catCount]int64 // attributed since the last commit point
	byCat    [catCount]int64 // committed attribution

	// All call-stack attribution lives in a trie of interned stack
	// signatures: curNode identifies the live signature (it IS the
	// shadow call stack — depth equals stack depth), foldCount[i]
	// accumulates self-cycles at node i, and children are linked via
	// first-child/next-sibling so descent is a short pointer walk with
	// no hashing. No string is built and no map is touched until
	// Profile() renders the report; per-function totals are recovered
	// there by summing nodes that share a function. OnSpend, the
	// hottest path in a profiled run, is a pair of slice-indexed adds.
	foldNodes []foldNode
	foldCount []int64
	curNode   int32

	cpBeginCycles int64
	cpBeginMs     float64
	cpOpen        bool
	lastFailAt    int64

	// Cached counter cells for the per-event-kind increments: Emit runs
	// once per event (undo appends fire per store instruction), so the
	// string-keyed registry lookups are hoisted to construction time.
	kindCtr     [evKindCount]*int64
	coldBoots   *int64
	undoRolled  *int64
	dropCtr     *int64
	cpLatHist   *Histogram
	cpSizeHist  *Histogram
	failGapHist *Histogram
	undoLenHist *Histogram
	ringCap     *Gauge
}

// NewRecorder builds an enabled recorder.
func NewRecorder(opts Options) *Recorder {
	if opts.RingCap <= 0 {
		opts.RingCap = 1 << 16
	}
	r := &Recorder{
		ring:    make([]Event, opts.RingCap),
		reg:     NewRegistry(),
		profile: opts.Profile,
	}
	r.cpLatHist = r.reg.RegisterHistogram("checkpoint_latency_cycles", []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192})
	r.cpSizeHist = r.reg.RegisterHistogram("checkpoint_size_bytes", []float64{16, 32, 64, 128, 256, 512, 1024, 2048})
	r.failGapHist = r.reg.RegisterHistogram("cycles_between_failures", []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7})
	r.undoLenHist = r.reg.RegisterHistogram("undo_len_per_epoch", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	kindCounters := [evKindCount]string{
		EvBoot: "boots", EvPowerFail: "power_failures",
		EvCheckpointCommit: "checkpoint_commits", EvRestore: "restores",
		EvUndoAppend: "undo_appends", EvUndoRollback: "undo_rollbacks",
		EvStackGrow: "stack_grows", EvStackShrink: "stack_shrinks",
		EvISREnter: "isr_entries", EvSend: "sends", EvExpiry: "expiry_traps",
		EvTaskCommit: "task_commits",
	}
	for kind, name := range kindCounters {
		if name != "" {
			r.kindCtr[kind] = r.reg.CounterRef(name)
		}
	}
	r.coldBoots = r.reg.CounterRef("cold_boots")
	r.undoRolled = r.reg.CounterRef("undo_entries_rolled_back")
	// Registered at zero so the series is always scrapable: an absent
	// drop counter is indistinguishable from a missing export.
	r.dropCtr = r.reg.CounterRef("trace_events_dropped")
	r.ringCap = r.reg.GaugeRef("trace_ring_cap")
	r.Reset()
	return r
}

// Reset returns the recorder to its freshly built state, reusing its
// storage: the ring, the profiler's tables and every registry cell
// (zeroed in place, so cached counter and histogram refs stay valid).
// Sinks and the function-name table are dropped; the next owner
// re-subscribes, and the machine reinstalls the names on attach. A
// pooled machine keeps its recorder across runs this way instead of
// building and re-registering a fresh one per run. Reset is Rearm plus
// zeroing what Rearm keeps, and NewRecorder ends with a Reset, so the
// three states cannot drift apart.
func (r *Recorder) Reset() {
	r.dropped = 0
	r.reg.Reset()
	r.funcs = nil
	r.byCat = [catCount]int64{}
	r.foldNodes = append(r.foldNodes[:0], foldNode{parent: -1, fn: -1, firstKid: -1, nextSib: -1}) // node 0: the "(device)" root
	r.foldCount = append(r.foldCount[:0], 0)
	r.Rearm()
}

// Rearm readies the recorder for another run while keeping what earlier
// runs accumulated: registry cells, committed category totals, the
// folded-stack trie with its counts, and the function-name table the
// trie's nodes refer to. Everything one run's attribution depends on —
// the ring, seq, sinks, category stack, pending attribution, call-stack
// position, checkpoint pairing and the last power-failure cycle — starts
// over, so k runs through one rearmed recorder fold into the same
// metrics and profile as k fresh recorders merged. Each armed run adds
// its ring capacity to the trace_ring_cap gauge, as merging k fresh
// registries would.
func (r *Recorder) Rearm() {
	r.head, r.n, r.seq = 0, 0, 0
	clear(r.sinks)
	r.sinks = r.sinks[:0]
	r.ringCap.Add(float64(len(r.ring)))
	r.catStack = append(r.catStack[:0], CatApp)
	r.pending = [catCount]int64{}
	r.curNode = 0
	r.cpBeginCycles, r.cpBeginMs, r.cpOpen, r.lastFailAt = 0, 0, false, 0
}

// RecorderState is a recorder's run state held outside it: the event
// ring, seq and drop count, the category stack and attribution, the
// profiler's call-stack trie and position, checkpoint pairing, the last
// power-failure cycle, and the registry's values. Sinks and the
// function-name table are not in it: they belong to whoever owns the
// recorder, and a sink's state is its owner's to save. Machine snapshots
// keep one per snapshot.
type RecorderState struct {
	ring           []Event
	head, n        int
	dropped, seq   int64
	catStack       []Category
	pending, byCat [catCount]int64
	foldNodes      []foldNode
	foldCount      []int64
	curNode        int32
	cpBeginCycles  int64
	cpBeginMs      float64
	cpOpen         bool
	lastFailAt     int64
	metrics        Values
}

// Save copies the recorder's run state into st, reusing st's storage.
func (r *Recorder) Save(st *RecorderState) {
	st.ring = append(st.ring[:0], r.ring...)
	st.head, st.n, st.dropped, st.seq = r.head, r.n, r.dropped, r.seq
	st.catStack = append(st.catStack[:0], r.catStack...)
	st.pending, st.byCat = r.pending, r.byCat
	st.foldNodes = append(st.foldNodes[:0], r.foldNodes...)
	st.foldCount = append(st.foldCount[:0], r.foldCount...)
	st.curNode = r.curNode
	st.cpBeginCycles, st.cpBeginMs, st.cpOpen, st.lastFailAt = r.cpBeginCycles, r.cpBeginMs, r.cpOpen, r.lastFailAt
	r.reg.SaveValues(&st.metrics)
}

// Load gives the recorder the run state Save put in st, in place: its
// sinks and function names stay, and every cached counter and histogram
// ref stays valid. st must come from a recorder built with the same
// Options.
func (r *Recorder) Load(st *RecorderState) {
	r.ring = append(r.ring[:0], st.ring...)
	r.head, r.n, r.dropped, r.seq = st.head, st.n, st.dropped, st.seq
	r.catStack = append(r.catStack[:0], st.catStack...)
	r.pending, r.byCat = st.pending, st.byCat
	r.foldNodes = append(r.foldNodes[:0], st.foldNodes...)
	r.foldCount = append(r.foldCount[:0], st.foldCount...)
	r.curNode = st.curNode
	r.cpBeginCycles, r.cpBeginMs, r.cpOpen, r.lastFailAt = st.cpBeginCycles, st.cpBeginMs, st.cpOpen, st.lastFailAt
	r.reg.LoadValues(&st.metrics)
}

// SetFunctions installs the image's function-name table (index-aligned
// with the function indices the machine reports). The machine does this
// when the recorder is attached; the table is shared, never modified.
func (r *Recorder) SetFunctions(names []string) { r.funcs = names }

// AddSink subscribes a streaming observer; see Sink. Sinks are invoked in
// registration order.
func (r *Recorder) AddSink(s Sink) { r.sinks = append(r.sinks, s) }

// Seq returns the number of events emitted so far — the seq the next
// event will carry.
func (r *Recorder) Seq() int64 { return r.seq }

// Metrics returns the recorder's registry.
func (r *Recorder) Metrics() *Registry { return r.reg }

// Dropped returns how many events the ring overwrote since the last
// Reset (Rearm keeps counting). The same count is exported live as the
// registry counter "trace_events_dropped" so trace loss is visible
// wherever the metrics go (Prometheus, fleet merges).
func (r *Recorder) Dropped() int64 { return r.dropped }

// RingCap returns the event ring's capacity — exported next to the drop
// counter so a scrape can tell "ring too small" from "quiet run".
func (r *Recorder) RingCap() int { return len(r.ring) }

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// CountKind tallies retained events of one kind.
func (r *Recorder) CountKind(k EventKind) int64 {
	var n int64
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		if r.ring[(start+i)%len(r.ring)].Kind == k {
			n++
		}
	}
	return n
}

// Emit records one event, updating the derived metrics first (metrics are
// exact even when the ring drops the event itself).
func (r *Recorder) Emit(ev Event) {
	if c := r.kindCtr[ev.Kind]; c != nil {
		*c++
	}
	switch ev.Kind {
	case EvBoot:
		if ev.Arg0 == 1 {
			*r.coldBoots++
		}
	case EvPowerFail:
		r.failGapHist.Observe(float64(ev.Cycles - r.lastFailAt))
		r.lastFailAt = ev.Cycles
	case EvCheckpointBegin:
		r.cpBeginCycles = ev.Cycles
		r.cpBeginMs = ev.TrueMs
		r.cpOpen = true
		r.cpSizeHist.Observe(float64(ev.Arg1))
	case EvCheckpointCommit:
		if r.cpOpen {
			ev.Arg1 = ev.Cycles - r.cpBeginCycles
			r.cpLatHist.Observe(float64(ev.Arg1))
			r.cpOpen = false
		}
	case EvUndoRollback:
		*r.undoRolled += ev.Arg0
	}
	seq := r.seq
	r.seq++
	for _, s := range r.sinks {
		s.OnEvent(seq, ev)
	}
	if r.n == len(r.ring) {
		// Ring overflow: the oldest retained event is overwritten. Count
		// the loss in the registry too, so it surfaces in /metrics and
		// fleet rollups instead of only via Dropped().
		r.dropped++
		*r.dropCtr++
	} else {
		r.n++
	}
	r.ring[r.head] = ev
	r.head = (r.head + 1) % len(r.ring)
}

// ObserveUndoLen records the undo-log length a commit point closes (the
// undo_len_per_epoch histogram).
func (r *Recorder) ObserveUndoLen(n int) { r.undoLenHist.Observe(float64(n)) }

// ---- Cycle attribution ----

// PushCategory enters an overhead category (checkpoint, restore, ...);
// cycles spent until the matching PopCategory are attributed to it.
func (r *Recorder) PushCategory(c Category) {
	if r.profile {
		r.catStack = append(r.catStack, c)
	}
}

// PopCategory leaves the innermost category. A power failure may unwind
// past pushed categories; OnPowerFail resets the stack, so an unmatched
// pop is guarded here.
func (r *Recorder) PopCategory() {
	if r.profile && len(r.catStack) > 1 {
		r.catStack = r.catStack[:len(r.catStack)-1]
	}
}

// OnSpend attributes c consumed cycles to the current category and the
// current shadow-stack signature. Called by the machine for every Spend —
// the profiler's hottest path — so it is exactly two slice-indexed adds;
// everything map- or string-shaped is deferred to Profile().
func (r *Recorder) OnSpend(c int64) {
	if !r.profile {
		return
	}
	r.pending[r.catStack[len(r.catStack)-1]] += c
	r.foldCount[r.curNode] += c
}

// foldNode is one interned shadow-stack signature: its parent signature
// plus one more function. Children hang off the parent as a
// first-child/next-sibling list — call sites fan out to a handful of
// callees, so the linear walk in foldDescend beats hashing.
type foldNode struct {
	parent   int32
	fn       int32
	firstKid int32
	nextSib  int32
}

// foldDescend moves curNode to the child signature for fn, interning it
// on first visit.
func (r *Recorder) foldDescend(fn int) {
	f := int32(fn)
	for id := r.foldNodes[r.curNode].firstKid; id >= 0; id = r.foldNodes[id].nextSib {
		if r.foldNodes[id].fn == f {
			r.curNode = id
			return
		}
	}
	id := int32(len(r.foldNodes))
	r.foldNodes = append(r.foldNodes, foldNode{
		parent: r.curNode, fn: f,
		firstKid: -1, nextSib: r.foldNodes[r.curNode].firstKid,
	})
	r.foldCount = append(r.foldCount, 0)
	r.foldNodes[r.curNode].firstKid = id
	r.curNode = id
}

// OnCommit flushes cycles attributed since the last commit point into the
// committed totals. The machine calls it at every commit (checkpoint,
// task transition, end of run).
func (r *Recorder) OnCommit() {
	if !r.profile {
		return
	}
	for i := range r.pending {
		r.byCat[i] += r.pending[i]
		r.pending[i] = 0
	}
}

// OnPowerFail reclassifies every cycle attributed since the last commit
// point as dead (re-executed) work and resets the category stack for the
// next boot.
func (r *Recorder) OnPowerFail() {
	if !r.profile {
		return
	}
	for i := range r.pending {
		r.byCat[CatDead] += r.pending[i]
		r.pending[i] = 0
	}
	r.catStack = r.catStack[:1]
	r.catStack[0] = CatApp
}

// Finish commits trailing attribution; call once after the run.
func (r *Recorder) Finish() { r.OnCommit() }

// EnterFunc pushes a function onto the shadow call stack.
func (r *Recorder) EnterFunc(fn int) {
	if !r.profile {
		return
	}
	r.foldDescend(fn)
}

// LeaveFunc pops the shadow call stack. A pop at the root (a Leave with
// no matching Enter after a re-root) is ignored.
func (r *Recorder) LeaveFunc() {
	if !r.profile || r.curNode == 0 {
		return
	}
	r.curNode = r.foldNodes[r.curNode].parent
}

// ResetStack re-roots the shadow call stack after a control-flow
// discontinuity (boot, restore, task transition). fn < 0 leaves the stack
// empty (the next Enter establishes the frame); ancestry above the live
// function is unknown after a restore, so folded stacks re-root there.
func (r *Recorder) ResetStack(fn int) {
	if !r.profile {
		return
	}
	r.curNode = 0
	if fn >= 0 {
		r.foldDescend(fn)
	}
}

func (r *Recorder) funcName(fn int) string {
	if fn >= 0 && fn < len(r.funcs) {
		return r.funcs[fn]
	}
	return "(stub)"
}

// Profile is the attribution summary.
type Profile struct {
	// ByCategory partitions total consumed cycles: app, checkpoint,
	// restore, undo-log, dead. The values sum to the machine's cycle
	// counter (after Finish).
	ByCategory map[string]int64
	// ByFunction attributes cycles to the function executing when they
	// were spent ("(stub)" covers the boot stub and boot-time work).
	ByFunction map[string]int64
	// Folded maps shadow-stack signatures ("(device);main;leaf") to
	// cycles — the folded-stacks flame graph input.
	Folded map[string]int64
}

// TotalCycles sums the category partition.
func (p Profile) TotalCycles() int64 {
	var t int64
	for _, v := range p.ByCategory {
		t += v
	}
	return t
}

// ReexecRatio is dead cycles over total cycles.
func (p Profile) ReexecRatio() float64 {
	t := p.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(p.ByCategory[CatDead.String()]) / float64(t)
}

// MergeProfiles folds many profiles into one: categories, functions and
// folded stacks all add. The fleet aggregator uses it to merge every
// device's profile into a single fleet-wide flame graph — devices run the
// same image, so their stack signatures align and hot paths sum.
func MergeProfiles(ps ...Profile) Profile {
	out := Profile{
		ByCategory: map[string]int64{},
		ByFunction: map[string]int64{},
		Folded:     map[string]int64{},
	}
	for _, p := range ps {
		for k, v := range p.ByCategory {
			out.ByCategory[k] += v
		}
		for k, v := range p.ByFunction {
			out.ByFunction[k] += v
		}
		for k, v := range p.Folded {
			out.Folded[k] += v
		}
	}
	return out
}

// Profile snapshots the attribution (call Finish first for exact totals).
func (r *Recorder) Profile() Profile {
	p := Profile{
		ByCategory: make(map[string]int64, catCount),
		ByFunction: make(map[string]int64, len(r.funcs)+1),
		Folded:     make(map[string]int64, len(r.foldNodes)),
	}
	for i, v := range r.byCat {
		p.ByCategory[Category(i).String()] = v + r.pending[i]
	}
	// Render the interned signature trie back into folded-stack strings,
	// and recover per-function totals by summing each function's nodes
	// (a node's count is self time for the function on top). Children
	// always intern after their parent, so a single pass over the node
	// list can reuse each parent's already-rendered key.
	keys := make([]string, len(r.foldNodes))
	keys[0] = "(device)"
	for i := 1; i < len(r.foldNodes); i++ {
		n := r.foldNodes[i]
		keys[i] = keys[n.parent] + ";" + r.funcName(int(n.fn))
	}
	for i, v := range r.foldCount {
		if v == 0 {
			continue
		}
		p.Folded[keys[i]] += v
		p.ByFunction[r.funcName(int(r.foldNodes[i].fn))] += v
	}
	return p
}
