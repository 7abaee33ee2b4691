package mc

import (
	"fmt"

	tics "repro"
	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
)

// runOutcome is everything one schedule execution contributes to the
// sweep verdict. Every field is a deterministic function of (spec,
// schedule), which is what makes the sweep worker-count independent.
type runOutcome struct {
	digest     replay.ResultDigest
	violations []audit.Violation
	stale      []StaleSend
	sendSeqs   []int64
	sendVals   []int32
	globals    []byte // committed global data bytes (nil when not collected)
	outs       map[int32][]int32
	marks      []int64
	stamps     []int64 // cycle stamps of events+stores (depth>=2 only)
	cycles     int64
}

// runner executes schedules against one shared image using a pool of
// slots, one per worker. A slot carries everything a schedule run needs
// besides its power schedule: a COW-forked machine, its recorder, its
// auditor and its freshness tracker. An empty slot materializes them on
// first claim (the machine from the image's vm.Prepared snapshot); later
// runs reset each in place — Machine.Reset, Recorder.Reset,
// Auditor.Reattach, freshTracker.reset, each indistinguishable from a
// fresh build (pinned by the pooled-reuse, Reset and Reattach tests) —
// so a 10k-schedule sweep does not pay 10k image loads, recorder
// registrations or auditor allocations. After the oracle, spec.MaxCycles
// holds the starvation bound for interrupted runs.
type runner struct {
	img      *tics.Image
	spec     replay.Spec
	prov     *provenance
	budgetMs int64
	pool     chan *slot
}

// newRunner builds spec's image and provenance index and a pool of
// workers empty slots.
func newRunner(spec replay.Spec, budgetMs int64, workers int) (*runner, error) {
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		return nil, err
	}
	prov, err := buildProvenance(img)
	if err != nil {
		return nil, err
	}
	r := &runner{img: img, spec: spec, prov: prov, budgetMs: budgetMs, pool: make(chan *slot, workers)}
	for i := 0; i < workers; i++ {
		r.pool <- &slot{}
	}
	return r, nil
}

// slot is one worker's reusable run state.
type slot struct {
	m       *vm.Machine
	rec     *obs.Recorder
	aud     *audit.Auditor
	tracker *freshTracker
}

// run executes one schedule (nil = uninterrupted) and gathers the
// outcome. collectGlobals snapshots the committed global data bytes;
// collectStamps gathers event+store cycle stamps for deeper enumeration.
func (r *runner) run(windows []power.SchedWindow, collectGlobals, collectStamps bool) (runOutcome, error) {
	s := <-r.pool
	defer func() { r.pool <- s }()
	if s.rec == nil {
		s.rec, s.aud, s.tracker = obs.NewRecorder(obs.Options{RingCap: 64}), &audit.Auditor{}, newFreshTracker(r.prov, r.budgetMs)
	}
	s.rec.Reset()
	s.tracker.reset()
	var err error
	if s.m, err = r.spec.Machine(r.img, s.m, &power.Schedule{Windows: windows}, s.rec); err != nil {
		return runOutcome{}, err
	}
	m, rec, aud, tracker := s.m, s.rec, s.aud, s.tracker
	if err := aud.Reattach(m, audit.Options{}); err != nil {
		return runOutcome{}, err
	}
	tracker.attach(m, rec)

	var stamps []int64
	if collectStamps {
		rec.AddSink(stampSink{out: &stamps})
		m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
			stamps = append(stamps, m.Cycles())
		})
	}

	res, _ := m.Run() // a fault is itself a verdict, not an executor error

	out := runOutcome{
		digest:     replay.DigestOf(res),
		violations: aud.Violations(),
		stale:      tracker.stale,
		outs:       res.OutLog,
		marks:      res.MarkCounts,
		stamps:     stamps,
		cycles:     res.Cycles,
	}
	for _, s := range res.SendLog {
		out.sendSeqs = append(out.sendSeqs, s.Seq)
		out.sendVals = append(out.sendVals, s.Value)
	}
	if collectGlobals {
		out.globals = r.committedGlobals(m)
	}
	return out, nil
}

// committedGlobals concatenates the data bytes of every program global
// (not the whole [GlobalsBase, StackBase) region: shadow timestamp
// slots, mark counters and runtime bookkeeping are excluded, so the
// comparison only judges state the program owns).
func (r *runner) committedGlobals(m *vm.Machine) []byte {
	var out []byte
	for _, s := range r.prov.spans {
		out = append(out, m.Mem.ReadBytes(s.base, s.size)...)
	}
	return out
}

// stampSink collects the cycle stamp of every emitted event.
type stampSink struct {
	out *[]int64
}

func (s stampSink) OnEvent(_ int64, ev obs.Event) {
	*s.out = append(*s.out, ev.Cycles)
}

// equalOutcome compares the committed observables of two runs (globals,
// out channels, mark counters, committed sends).
func equalOutcome(a, b runOutcome) (string, bool) {
	if string(a.globals) != string(b.globals) {
		return "committed global bytes diverge from the oracle", false
	}
	if len(a.marks) != len(b.marks) {
		return "mark counter count diverges", false
	}
	for i := range a.marks {
		if a.marks[i] != b.marks[i] {
			return fmt.Sprintf("mark counter %d diverges: %d vs oracle %d", i, a.marks[i], b.marks[i]), false
		}
	}
	if len(a.outs) != len(b.outs) {
		return "out channel set diverges", false
	}
	for ch, vals := range a.outs {
		ref, ok := b.outs[ch]
		if !ok || len(ref) != len(vals) {
			return fmt.Sprintf("out channel %d length diverges", ch), false
		}
		for i := range vals {
			if vals[i] != ref[i] {
				return fmt.Sprintf("out channel %d[%d] = %d, oracle %d", ch, i, vals[i], ref[i]), false
			}
		}
	}
	if len(a.sendVals) != len(b.sendVals) {
		return fmt.Sprintf("committed send count %d, oracle %d", len(a.sendVals), len(b.sendVals)), false
	}
	for i := range a.sendVals {
		if a.sendVals[i] != b.sendVals[i] || a.sendSeqs[i] != b.sendSeqs[i] {
			return fmt.Sprintf("committed send %d = (%d, seq %d), oracle (%d, seq %d)",
				i, a.sendVals[i], a.sendSeqs[i], b.sendVals[i], b.sendSeqs[i]), false
		}
	}
	return "", true
}
