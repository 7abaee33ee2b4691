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
	resumedAt  int64 // cycle of the oracle snapshot the run started from (0: cold boot)
}

// runner executes schedules against one shared image using a pool of
// slots, one per worker. A slot carries everything a schedule run needs
// besides its power schedule: a COW-forked machine, its recorder and its
// auditor, which also keeps the run's freshness record. An empty slot
// materializes them on first claim (the machine from the image's
// vm.Prepared snapshot); later runs reset each in place — Machine.Reset,
// Recorder.Reset, Auditor.Reattach, each indistinguishable from a fresh
// build (pinned by the pooled-reuse, Reset and Reattach tests) — so a
// 10k-schedule sweep does not pay 10k image loads, recorder
// registrations, auditor allocations or provenance indexes. cfg is the
// sweep's configuration with the run spec in cfg.Spec: continuous power,
// and after the oracle MaxCycles holds the starvation bound for
// interrupted runs. Once snapshotOracle ran, snaps holds the oracle
// snapshots schedules start from, and observers the recorder and
// auditor state taken with each.
type runner struct {
	img       *tics.Image
	cfg       Config
	pool      chan *slot
	snaps     []*vm.Snapshot // in cycle order
	observers []observers
}

// observers is the state of the recorder and auditor watching the oracle
// at one of its snapshots. Everything a schedule executes before its
// first reboot is the oracle's run, cycle for cycle, so a schedule whose
// first window covers a snapshot starts from it (vm.Machine.RunFrom) —
// restored into its slot with these observers — instead of from cold
// boot. vm.Machine.SetBoundaryHook stops snapshots once the oracle reads
// Remaining(), the one input that differs between the oracle's window
// and a schedule's; the oracle and every schedule share one seed, so
// sensor readings and the timekeeper agree between them.
type observers struct {
	rec obs.RecorderState
	aud audit.Auditor
}

// Snapshot spacing: one at the first instruction boundary past every
// multiple of oracle.cycles/maxSnapshots, so a resumed schedule
// re-executes at most that much of the prefix it shares with the oracle.
// Snapshots come no closer than minSnapshotGap cycles: restoring one
// costs about as much host time as interpreting 1,000–2,500 cycles
// (2.5–5 µs for swap and bc on a 2-vCPU host), so a resume must skip
// well over that to pay.
const (
	maxSnapshots   = 64
	minSnapshotGap = 4096
)

// snapshotInterval is the snapshot spacing for an oracle of the given
// length.
func snapshotInterval(oracleCycles int64) int64 {
	return max(oracleCycles/maxSnapshots, minSnapshotGap)
}

// worthSnapshots reports whether starting schedules from oracle
// snapshots saves more than taking them costs. Taking them re-runs the
// oracle with a snapshot per interval, which costs about as much host
// time as three or four plain oracle runs (3.1–3.3× on bc, ghm and ar),
// and a schedule resumes at the last interval multiple at or before its
// first reboot, skipping that many cycles.
func worthSnapshots(schedules [][]power.SchedWindow, oracleCycles int64) bool {
	interval := snapshotInterval(oracleCycles)
	var skipped int64
	for _, s := range schedules {
		skipped += s[0].Cycles / interval * interval
	}
	return skipped > 4*oracleCycles
}

// snapshotOracle re-runs the oracle — deterministically the same run —
// taking its snapshots into r.snaps.
func (r *runner) snapshotOracle(oracle runOutcome) error {
	out, err := r.run(nil, false, false, snapshotInterval(oracle.cycles))
	if err == nil && out.digest != oracle.digest {
		err = fmt.Errorf("mc: oracle re-run diverged: %+v, first run %+v", out.digest, oracle.digest)
	}
	return err
}

// snapshotHook returns the boundary hook that takes r.snaps, one past
// every multiple of interval.
func (r *runner) snapshotHook(interval int64, rec *obs.Recorder, aud *audit.Auditor) func(*vm.Machine) int64 {
	return func(m *vm.Machine) int64 {
		r.snaps = append(r.snaps, m.Snapshot())
		r.observers = append(r.observers, observers{})
		o := &r.observers[len(r.observers)-1]
		rec.Save(&o.rec)
		o.aud.CopyFrom(aud)
		return (m.Cycles()/interval + 1) * interval
	}
}

// ringCap is the event-ring capacity of every recorder a sweep builds.
const ringCap = 64

// newRunner builds cfg.Spec's image and a pool of cfg.Workers empty
// slots. The runner's spec runs under continuous power: every schedule
// brings its own.
func newRunner(cfg Config) (*runner, error) {
	cfg.Spec.Power = "continuous"
	img, _, err := replay.BuildImage(cfg.Spec)
	if err != nil {
		return nil, err
	}
	r := &runner{img: img, cfg: cfg, pool: make(chan *slot, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		r.pool <- &slot{}
	}
	return r, nil
}

// slot is one worker's reusable run state.
type slot struct {
	m   *vm.Machine
	rec *obs.Recorder
	aud *audit.Auditor
}

// run executes one schedule (nil = uninterrupted) and gathers the
// outcome. collectGlobals snapshots the committed global data bytes;
// collectStamps gathers event+store cycle stamps for deeper enumeration.
// A schedule starts from the latest oracle snapshot its first window
// covers; the stamps it then does not collect all lie at or before its
// first reboot, where enumeration drops them anyway (boundariesFrom).
// snapshotEvery > 0 makes the run take r.snaps at that spacing (the
// oracle).
func (r *runner) run(windows []power.SchedWindow, collectGlobals, collectStamps bool, snapshotEvery int64) (runOutcome, error) {
	s := <-r.pool
	defer func() { r.pool <- s }()
	if s.rec == nil {
		s.rec, s.aud = obs.NewRecorder(obs.Options{RingCap: ringCap}), &audit.Auditor{}
	}
	s.rec.Reset()
	var err error
	if s.m, err = r.cfg.Spec.Machine(r.img, s.m, &power.Schedule{Windows: windows}, s.rec); err != nil {
		return runOutcome{}, err
	}
	m, rec, aud := s.m, s.rec, s.aud
	if err := aud.Reattach(m, audit.Options{}); err != nil {
		return runOutcome{}, err
	}

	var stamps []int64
	if collectStamps {
		rec.AddSink(stampSink{out: &stamps})
		m.ObserveStores(func(addr uint32, size int, val uint32, deviceMs int64) {
			stamps = append(stamps, m.Cycles())
		})
	}

	if snapshotEvery > 0 {
		m.SetBoundaryHook(snapshotEvery, r.snapshotHook(snapshotEvery, rec, aud))
	}
	var resumedAt int64
	res, err := m.RunFrom(r.snaps, func(i int) {
		rec.Load(&r.observers[i].rec)
		aud.CopyFrom(&r.observers[i].aud)
		resumedAt = r.snaps[i].Cycles()
	})
	// A fault is itself a verdict, not an executor error; only a snapshot
	// that does not restore is one.
	if err != nil && res.Fault == nil {
		return runOutcome{}, err
	}

	out := runOutcome{
		digest:     replay.DigestOf(res),
		violations: aud.Violations(),
		stale:      staleSends(aud.SendAges(), r.cfg.AssumeBudgetMs),
		outs:       res.OutLog,
		marks:      res.MarkCounts,
		stamps:     stamps,
		cycles:     res.Cycles,
		resumedAt:  resumedAt,
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
	for _, g := range r.img.Program.Globals {
		out = append(out, m.Mem.ReadBytes(r.img.GlobalsBase+g.Offset, g.Size)...)
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
