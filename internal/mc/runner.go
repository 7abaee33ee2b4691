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
	auditTotal int64
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
// COW-forked machines: the pool holds one slot per worker, a nil slot
// materializes into a machine from the image's vm.Prepared snapshot on
// first claim, and later runs rebind it with Machine.Reset
// (indistinguishable from a fresh machine, pinned by the pooled-reuse
// tests), so a 10k-schedule sweep does not pay 10k image loads. After
// the oracle, spec.MaxCycles holds the starvation bound for interrupted
// runs.
type runner struct {
	img      *tics.Image
	spec     replay.Spec
	prov     *provenance
	budgetMs int64
	pool     chan *vm.Machine
}

// run executes one schedule (nil = uninterrupted) and gathers the
// outcome. collectGlobals snapshots the committed global data bytes;
// collectStamps gathers event+store cycle stamps for deeper enumeration.
func (r *runner) run(windows []power.SchedWindow, collectGlobals, collectStamps bool) (runOutcome, error) {
	rec := obs.NewRecorder(obs.Options{RingCap: 64})
	m, err := r.spec.Machine(r.img, <-r.pool, &power.Schedule{Windows: windows}, rec)
	defer func() { r.pool <- m }()
	if err != nil {
		return runOutcome{}, err
	}

	aud, err := audit.Attach(m, audit.Options{})
	if err != nil {
		return runOutcome{}, err
	}
	tracker := newFreshTracker(r.prov, r.budgetMs)
	tracker.attach(m, rec)

	var stamps []int64
	if collectStamps {
		rec.AddSink(stampSink{m: m, out: &stamps})
		m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
			stamps = append(stamps, m.Cycles())
		})
	}

	res, _ := m.Run() // a fault is itself a verdict, not an executor error

	out := runOutcome{
		digest:     replay.DigestOf(res),
		violations: aud.Violations(),
		auditTotal: aud.Total(),
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
	m   *vm.Machine
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
