package mc

// The freshness tracker mc kept before the auditor took over its
// record, with the provenance index it used: the test-only reference the
// differential test holds the auditor's send ages to.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	tics "repro"
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/taskrt"
	"repro/internal/vm"
)

// globalSpan maps an absolute data-address range onto a program global.
type globalSpan struct {
	base      uint32
	size      int
	name      string
	expiresMs int64 // -1 when not @expires_after-annotated
}

// srcSet is the resolved provenance of one stored/sent value: the globals
// it was computed from, as indices into provenance.spans. known=false means the backward
// walk met an instruction it cannot invert (indirect load, call result,
// ...) and the checker must not draw conclusions from this site; the
// zero srcSet, which every PC without a site holds, is such a site.
type srcSet struct {
	known   bool
	globals []int
}

// provenance is the static data-provenance index for one image. For every
// Send instruction and every direct global store it records which globals
// the value on the stack was computed from, by inverting the stack effect
// of the producing expression (leaves: LoadG/LoadGB name a global;
// PushI/Sense/Now/LoadL/AddrL/GetRV produce a fresh value; ALU ops union
// their operands). The walk is linear within the emitted instruction
// order; any jump target that could enter the expression mid-stream
// demotes the site to unknown, so the index never over-claims.
//
// A global is identified by its index in spans (global names are
// unique), resolved once here. sends and stores are dense tables indexed
// by pc - textBase, like the interpreter's decode table, so the per-store
// and per-send hooks do no map or string work.
type provenance struct {
	spans    []globalSpan // sorted by base
	textBase uint32
	sends    []srcSet // Send PC -> payload sources
	stores   []srcSet // direct global-store PC -> value sources
}

func buildProvenance(img *tics.Image) (*provenance, error) {
	p := &provenance{
		textBase: img.TextBase,
		sends:    make([]srcSet, len(img.Text)),
		stores:   make([]srcSet, len(img.Text)),
	}
	for _, g := range img.Program.Globals {
		p.spans = append(p.spans, globalSpan{
			base:      img.GlobalsBase + g.Offset,
			size:      g.Size,
			name:      g.Name,
			expiresMs: g.ExpiresAfterMs,
		})
	}
	sort.Slice(p.spans, func(i, j int) bool { return p.spans[i].base < p.spans[j].base })

	var instrs []isa.Instr
	var addrs []uint32
	for off := 0; off < len(img.Text); {
		in, next, err := isa.Decode(img.Text, off)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
		addrs = append(addrs, img.TextBase+uint32(off))
		off = next
	}
	targets := map[uint32]bool{}
	for _, in := range instrs {
		switch in.Op {
		case isa.Jmp, isa.Jz, isa.Jnz, isa.Call, isa.ExpBegin, isa.ExpCatch, isa.Timely:
			targets[uint32(in.Imm)] = true
		}
	}
	for _, f := range img.Funcs {
		targets[f.Entry] = true
	}

	for i, in := range instrs {
		switch in.Op {
		case isa.Send:
			srcs, _, ok := p.valueAt(instrs, addrs, targets, i-1)
			p.sends[addrs[i]-p.textBase] = srcSet{known: ok, globals: srcs}
		case isa.StoreG, isa.StoreGL, isa.StoreGB, isa.StoreGBL:
			if p.globalAt(uint32(in.Imm)) < 0 {
				continue
			}
			srcs, _, ok := p.valueAt(instrs, addrs, targets, i-1)
			p.stores[addrs[i]-p.textBase] = srcSet{known: ok, globals: srcs}
		}
	}
	return p, nil
}

// globalAt resolves an absolute address to the index of the global whose
// data range covers it (-1 for runtime state, shadow timestamp slots,
// the stack).
func (p *provenance) globalAt(addr uint32) int {
	i := sort.Search(len(p.spans), func(i int) bool {
		return p.spans[i].base+uint32(p.spans[i].size) > addr
	})
	if i < len(p.spans) && addr >= p.spans[i].base {
		return i
	}
	return -1
}

// at returns the provenance table records for pc; a pc outside the text
// reads as an unknown site.
func (p *provenance) at(table []srcSet, pc uint32) srcSet {
	if off := pc - p.textBase; off < uint32(len(table)) {
		return table[off]
	}
	return srcSet{}
}

// valueAt resolves the provenance of the value left on top of the operand
// stack by instruction j, returning the source globals, the index of the
// first instruction of the producing expression, and whether the
// resolution is sound.
func (p *provenance) valueAt(instrs []isa.Instr, addrs []uint32, targets map[uint32]bool, j int) ([]int, int, bool) {
	if j < 0 {
		return nil, 0, false
	}
	in := instrs[j]
	switch in.Op {
	case isa.PushI, isa.Sense, isa.Now, isa.GetRV, isa.LoadL, isa.AddrL:
		// Fresh leaves: constants, peripherals, the clock, locals (treated
		// as freshly produced — a pessimism that can only suppress
		// findings, never invent them).
		return nil, j, true
	case isa.LoadG, isa.LoadGB:
		if g := p.globalAt(uint32(in.Imm)); g >= 0 {
			return []int{g}, j, true
		}
		return nil, j, true
	case isa.Neg, isa.Not, isa.LNot, isa.Dup:
		srcs, start, ok := p.valueAt(instrs, addrs, targets, j-1)
		if !ok || targets[addrs[j]] {
			return nil, 0, false
		}
		return srcs, start, true
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.And, isa.Or, isa.Xor,
		isa.Shl, isa.Shr, isa.CmpEq, isa.CmpNe, isa.CmpLt, isa.CmpLe, isa.CmpGt,
		isa.CmpGe, isa.CmpLtU, isa.CmpLeU, isa.CmpGtU, isa.CmpGeU:
		rhs, rhsStart, ok := p.valueAt(instrs, addrs, targets, j-1)
		if !ok {
			return nil, 0, false
		}
		lhs, lhsStart, ok := p.valueAt(instrs, addrs, targets, rhsStart-1)
		if !ok {
			return nil, 0, false
		}
		// A jump into the operator or the start of the rhs subexpression
		// would execute the op against a foreign lhs.
		if targets[addrs[j]] || targets[addrs[rhsStart]] {
			return nil, 0, false
		}
		return union(lhs, rhs), lhsStart, true
	}
	return nil, 0, false
}

func union(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := append([]int{}, a...)
	for _, s := range b {
		found := false
		for _, t := range out {
			if t == s {
				found = true
				break
			}
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}

// TestDataProvenanceMatchesReference holds the abstract interpreter's
// data sites to the backward walk above: for every variant of every
// shipped app (plain, manual, task ports), every seeded program and
// rolledBackStoreSrc, built for every runtime that accepts it at -O0 and
// -O2, each Send and each direct global store has exactly one site,
// resolved exactly when the walk resolves it, naming the same globals in
// the same order.
func TestDataProvenanceMatchesReference(t *testing.T) {
	type program struct {
		label, src string
		tasks      []string
		edges      []taskrt.Edge
	}
	var progs []program
	for _, a := range apps.Every() {
		progs = append(progs,
			program{a.Name, a.Source, nil, nil},
			program{a.Name + "/manual", a.ManualSource, nil, nil},
			program{a.Name + "/task", a.TaskSource, a.Tasks, a.Edges},
			program{a.Name + "/mayfly", a.MayflyTaskSource, a.MayflyTasks, a.MayflyEdges})
	}
	seeded, err := filepath.Glob(filepath.Join(seededDir, "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range seeded {
		progs = append(progs, program{label: filepath.Base(path), src: readSeeded(t, filepath.Base(path))})
	}
	progs = append(progs, program{label: "rolled-back-store", src: rolledBackStoreSrc})

	images, sites, resolved := 0, 0, 0
	for _, p := range progs {
		if p.src == "" {
			continue
		}
		for _, rt := range tics.Runtimes() {
			for _, o0 := range []bool{true, false} {
				opts := tics.BuildOptions{Runtime: rt, O0: o0, Tasks: p.tasks, Edges: p.edges}
				img, err := tics.Build(p.src, opts)
				if err != nil {
					continue // a runtime the program cannot build for
				}
				n, r := compareProvenance(t, fmt.Sprintf("%s/%s/O0=%v", p.label, rt, o0), img)
				images, sites, resolved = images+1, sites+n, resolved+r
			}
		}
	}
	t.Logf("%d images: %d sites, %d resolved", images, sites, resolved)
	if resolved == 0 || resolved == sites {
		t.Fatalf("%d of %d sites resolved: the comparison is vacuous on one side", resolved, sites)
	}
}

// compareProvenance compares img's analysis sites with the reference
// walk's at every Send and direct global store, and returns how many
// sites there were and how many resolved.
func compareProvenance(t *testing.T, label string, img *tics.Image) (sites, resolved int) {
	t.Helper()
	ref, err := buildProvenance(img)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint32]analysis.DataSite{}
	for _, s := range analysis.DataProvenance(img.Program) {
		got[img.Funcs[s.Func].Entry+s.Off] = s
	}
	names := func(globals []int, name func(int) string) []string {
		var out []string
		for _, g := range globals {
			out = append(out, name(g))
		}
		return out
	}
	for off := 0; off < len(img.Text); {
		in, next, err := isa.Decode(img.Text, off)
		if err != nil {
			t.Fatal(err)
		}
		pc := img.TextBase + uint32(off)
		off = next
		var want srcSet
		switch in.Op {
		case isa.Send:
			want = ref.at(ref.sends, pc)
		case isa.StoreG, isa.StoreGL, isa.StoreGB, isa.StoreGBL:
			if ref.globalAt(uint32(in.Imm)) < 0 {
				continue
			}
			want = ref.at(ref.stores, pc)
		default:
			continue
		}
		sites++
		s, ok := got[pc]
		if !ok || s.Send != (in.Op == isa.Send) {
			t.Fatalf("%s: %v at %#x: no matching analysis site (got %+v)", label, in.Op, pc, s)
		}
		wantNames := names(want.globals, func(g int) string { return ref.spans[g].name })
		gotNames := names(s.Sources, func(g int) string { return img.Program.Globals[g].Name })
		if s.Resolved != want.known || !reflect.DeepEqual(gotNames, wantNames) {
			t.Errorf("%s: %v at %#x: resolved %v %v, reference %v %v",
				label, in.Op, pc, s.Resolved, gotNames, want.known, wantNames)
		}
		if s.Resolved {
			resolved++
		}
	}
	if sites != len(got) {
		t.Errorf("%s: %d analysis sites, %d Send and direct global-store instructions", label, len(got), sites)
	}
	return sites, resolved
}

// freshTracker is the dynamic half of the time-consistency check. It
// maintains, per global, the device-clock time the global's current value
// was produced from a fresh source (propagated through direct
// global-to-global assignments by the static provenance index), reverts
// that map on rollback exactly as the runtime reverts NVM, and flags
// every committed send whose payload is older than its budget. Annotated
// globals use their @expires_after budget; unannotated globals use
// assumeBudgetMs when positive (a scenario knob for programs that manage
// freshness manually, the TV004/TV005 shapes).
//
// Production times are indexed like provenance.spans. A global never
// written reads 0, its boot-time initial value.
type freshTracker struct {
	prov           *provenance
	assumeBudgetMs int64

	prod      []int64 // production time of the current value
	committed []int64 // prod at the last commit point
	stale     []StaleSend
}

func newFreshTracker(prov *provenance, assumeBudgetMs int64) *freshTracker {
	return &freshTracker{
		prov:           prov,
		assumeBudgetMs: assumeBudgetMs,
		prod:           make([]int64, len(prov.spans)),
		committed:      make([]int64, len(prov.spans)),
	}
}

// attach hooks the tracker onto a machine and its recorder. It chains
// store observation (compatible with the auditor), owns the OnSend hook,
// and snapshots/reverts on commit/restore events from the recorder
// stream. Attach after audit.Attach so event ordering stays fixed.
func (t *freshTracker) attach(m *vm.Machine, rec *obs.Recorder) {
	m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
		// The program counter still points at the store instruction while
		// its observer runs, which is what keys the provenance index.
		t.onStore(m.Regs.PC, addr, deviceMs)
	})
	m.OnSend = t.onSend
	rec.AddSink(t)
}

// OnEvent implements obs.Sink: commits snapshot the production map,
// restores revert it (the runtime just reverted the values themselves).
func (t *freshTracker) OnEvent(_ int64, ev obs.Event) {
	switch ev.Kind {
	case obs.EvCheckpointCommit, obs.EvTaskCommit:
		copy(t.committed, t.prod)
	case obs.EvRestore:
		copy(t.prod, t.committed)
	}
}

func (t *freshTracker) onStore(pc uint32, addr uint32, deviceMs int64) {
	g := t.prov.globalAt(addr)
	if g < 0 {
		return
	}
	set := t.prov.at(t.prov.stores, pc)
	if !set.known || len(set.globals) == 0 {
		// Unknown provenance or a fresh expression: the store produces a
		// new value now.
		t.prod[g] = deviceMs
		return
	}
	// The stored value is as old as its oldest global source.
	prod := deviceMs
	for _, src := range set.globals {
		prod = min(prod, t.prod[src])
	}
	t.prod[g] = prod
}

func (t *freshTracker) onSend(rec vm.SendRec) {
	set := t.prov.at(t.prov.sends, rec.PC)
	if !set.known {
		return
	}
	for _, src := range set.globals {
		g := &t.prov.spans[src]
		budget := g.expiresMs
		if budget < 0 {
			if t.assumeBudgetMs <= 0 {
				continue
			}
			budget = t.assumeBudgetMs
		}
		age := rec.EstMs - t.prod[src]
		if age > budget {
			t.stale = append(t.stale, StaleSend{
				PC:       rec.PC,
				Global:   g.name,
				Seq:      rec.Seq,
				AgeMs:    age,
				BudgetMs: budget,
				DeviceMs: rec.EstMs,
			})
		}
	}
}

// rolledBackStoreSrc re-senses sample only while the clock reads within
// 20 ms of start. A reboot after that store and before the next commit
// re-executes past the deadline, skips the store and sends the committed
// value, so its age counts only if a restore reverts the production time
// of the rolled-back store.
const rolledBackStoreSrc = `
@expires_after=50 int sample;
int start;
int acc;
int main() {
    int i;
    sample @= sense(0);
    start = now();
    checkpoint();
    for (i = 0; i < 10; i++) { acc = acc + i; }
    if (now() - start < 20) {
        sample @= sense(0);
    }
    for (i = 0; i < 10; i++) { acc = acc + i; }
    send(sample);
    return 0;
}`

// TestStaleSendsMatchFreshTracker is the differential test of the
// freshness record's move into the auditor: for every shipped app under
// every runtime it builds for, for a program whose reboots roll back a
// store the re-execution then skips (under every checkpointing runtime),
// and for the seeded corpus with
// AssumeBudgetMs 0 and 100, every schedule of a depth-1 and a capped
// depth-2 sweep — booted cold and resumed from oracle snapshots — reports
// exactly the stale sends the reference freshTracker reports on a cold
// run of the same schedule.
func TestStaleSendsMatchFreshTracker(t *testing.T) {
	max := 24
	if testing.Short() || raceDetector {
		max = 12
	}
	stale, resumed := 0, 0
	for _, a := range apps.All() {
		for _, rt := range tics.Runtimes() {
			spec := replay.Spec{App: a.Name, Runtime: string(rt), TimerMs: 2, WallMs: 40, Seed: 1, Virtualize: true}
			if _, _, err := replay.BuildImage(spec); err != nil {
				continue // no task port, or a runtime the program cannot build for
			}
			t.Run(a.Name+"/"+string(rt), func(t *testing.T) {
				s, r := checkAgainstTracker(t, Config{Spec: spec, MaxSchedules: max})
				stale, resumed = stale+s, resumed+r
			})
		}
	}
	for _, rt := range []tics.RuntimeKind{tics.RTPlain, tics.RTTICS, tics.RTTICSTask, tics.RTMementos, tics.RTChinchilla} {
		spec := replay.Spec{Source: rolledBackStoreSrc, Runtime: string(rt), TimerMs: 2, Virtualize: true}
		t.Run("rolled-back-store/"+string(rt), func(t *testing.T) {
			s, r := checkAgainstTracker(t, Config{Spec: spec, OffMs: 100, MaxSchedules: 4 * max})
			stale, resumed = stale+s, resumed+r
		})
	}
	for _, sc := range Scenarios() {
		for _, budget := range []int64{0, 100} {
			t.Run(fmt.Sprintf("%s/assume-%d", sc.File, budget), func(t *testing.T) {
				cfg := scenarioConfigFor(t, sc.File)
				cfg.AssumeBudgetMs, cfg.MaxSchedules = budget, 48
				s, r := checkAgainstTracker(t, cfg)
				stale, resumed = stale+s, resumed+r
			})
		}
	}
	t.Logf("%d stale sends, %d resumed schedules", stale, resumed)
	if stale == 0 || resumed == 0 {
		t.Fatalf("%d stale sends, %d resumed schedules: the comparison is vacuous", stale, resumed)
	}
}

// checkAgainstTracker sweeps base at depth 1 and 2, cold and from
// snapshots, and compares every schedule's stale sends with the
// reference tracker's. It returns how many stale sends the reference
// found and how many schedules resumed.
func checkAgainstTracker(t *testing.T, base Config) (stale, resumed int) {
	t.Helper()
	spec := base.Spec
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := buildProvenance(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2} {
		for _, cold := range []bool{true, false} {
			cfg := base
			cfg.Depth, cfg.Workers = depth, 2
			var levels []level
			rep, err := sweep(cfg, cold, func(s [][]power.SchedWindow, o []runOutcome) {
				levels = append(levels, level{s, o})
			})
			if err != nil {
				t.Fatal(err)
			}
			// The sweep's starvation bound for interrupted runs.
			if rep.Oracle.Completed {
				spec.MaxCycles = rep.Oracle.Cycles*4 + 1_000_000
			}
			for _, l := range levels {
				for i, sched := range l.schedules {
					out := l.outcomes[i]
					want := trackerStale(t, img, spec, prov, base.AssumeBudgetMs, sched)
					if !reflect.DeepEqual(out.stale, want) {
						t.Fatalf("depth %d, cold %v: schedule %v (resumed at %d): stale sends\n got %+v\nwant %+v",
							depth, cold, sched, out.resumedAt, out.stale, want)
					}
					stale += len(want)
					if out.resumedAt > 0 {
						resumed++
					}
				}
			}
		}
	}
	return stale, resumed
}

// trackerStale runs one schedule cold with only the reference tracker
// attached and returns its stale sends.
func trackerStale(t *testing.T, img *tics.Image, spec replay.Spec, prov *provenance, assumeBudgetMs int64, windows []power.SchedWindow) []StaleSend {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{RingCap: ringCap})
	m, err := spec.Machine(img, nil, &power.Schedule{Windows: windows}, rec)
	if err != nil {
		t.Fatal(err)
	}
	tr := newFreshTracker(prov, assumeBudgetMs)
	tr.attach(m, rec)
	if res, err := m.Run(); err != nil && res.Fault == nil {
		t.Fatal(err)
	}
	return tr.stale
}
