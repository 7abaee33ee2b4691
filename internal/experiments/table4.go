package experiments

import (
	"fmt"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sensors"
	"repro/internal/vm"
)

// Table4Measurement is one runtime-operation cost in cycles (1 cycle =
// 1 µs at the 1 MHz clock, matching the paper's units).
type Table4Measurement struct {
	Operation string
	Config    string
	Cycles    int64
}

// table4Rig builds a minimal TICS machine with the given segment size and
// powers it manually so runtime operations can be driven directly.
func table4Rig(segBytes int) (*vm.Machine, *core.TICS, error) {
	const src = `
int g;
void leaf() { g = g + 1; }
int main() { leaf(); return 0; }
`
	prog, err := cc.Compile(src, cc.Options{OptLevel: 2})
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{SegmentBytes: segBytes, StackBytes: 2048, UndoCapBytes: 2048}
	img, err := link.Link(prog, core.Spec(cfg, prog.MinSegmentBytes()))
	if err != nil {
		return nil, nil, err
	}
	rt, err := core.New(img, cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := vm.New(vm.Config{Image: img, Runtime: rt,
		Recorder: obs.NewRecorder(obs.Options{RingCap: 256})})
	if err != nil {
		return nil, nil, err
	}
	m.PowerOn(1 << 40)
	rt.Boot(m, true)
	return m, rt, nil
}

// Table4 reproduces the point-to-point runtime overhead table: checkpoint
// and restore cost per segment size, stack grow/shrink, instrumented
// pointer stores (working-stack hit vs undo-logged miss), and undo-log
// rollback, all measured by driving the real runtime operations and
// reading the machine's cycle counter.
func Table4() (Report, error) {
	var ms []Table4Measurement
	add := func(op, cfg string, cycles int64) {
		ms = append(ms, Table4Measurement{Operation: op, Config: cfg, Cycles: cycles})
	}

	// Checkpoint / restore across segment sizes.
	for _, seg := range []int{0, 64, 128, 256} {
		m, rt, err := table4Rig(seg)
		if err != nil {
			return Report{}, err
		}
		label := fmt.Sprintf("%d B seg.", rt.SegmentBytes())
		c0 := m.Cycles()
		rt.Checkpoint(m, vm.CpManual)
		measured := m.Cycles() - c0
		// Cross-check the measurement against the recorded checkpoint
		// begin/commit pair: the event-derived latency must agree.
		if lat, ok := lastCommitLatency(m.Recorder()); !ok || lat != measured {
			return Report{}, fmt.Errorf("table4 %s: recorded checkpoint latency %d != measured %d cycles",
				label, lat, measured)
		}
		add("Checkpoint logic", label, measured)
		c0 = m.Cycles()
		rt.Boot(m, false)
		add("Restore logic", label, m.Cycles()-c0)
	}

	// Pointer-store fast path (working stack) vs undo-logged path, and
	// rollback cost per entry.
	m, rt, err := table4Rig(128)
	if err != nil {
		return Report{}, err
	}
	inStack := m.Regs.SP - 8 // inside the working segment
	c0 := m.Cycles()
	rt.LoggedStore(m, inStack, 4, 7)
	add("Pointer access", "no log (4 B)", m.Cycles()-c0)

	gAddr, _ := m.Img.GlobalAddr("g")
	c0 = m.Cycles()
	rt.LoggedStore(m, gAddr, 4, 7)
	add("Pointer access", "log 4 B", m.Cycles()-c0)

	// Roll back from the undo log: measure a restore with one pending
	// entry against an empty-log restore.
	c0 = m.Cycles()
	rt.Boot(m, false)
	withEntry := m.Cycles() - c0
	c0 = m.Cycles()
	rt.Boot(m, false)
	empty := m.Cycles() - c0
	add("Roll back from undo log", "4 B", withEntry-empty)

	// Stack grow and shrink: pin SP near the segment floor so entering a
	// function forces the working stack onto the next segment.
	m, rt, err = table4Rig(128)
	if err != nil {
		return Report{}, err
	}
	segBase := m.Img.StackBase + m.Img.StackLen - uint32(rt.SegmentBytes())
	m.Regs.SP = segBase + 12
	m.Push(0xBEEF) // a fake return PC for the grow to move
	cpCost := measureCp(m, rt)
	c0 = m.Cycles()
	rt.Enter(m, 0) // function index 0 = leaf
	growTotal := m.Cycles() - c0
	add("Stack grow", "incl. forced checkpoint", growTotal)
	add("Stack grow", "excl. checkpoint", growTotal-cpCost)
	c0 = m.Cycles()
	rt.Leave(m)
	shrinkTotal := m.Cycles() - c0
	add("Stack shrink", "incl. enforced checkpoint", shrinkTotal)
	add("Stack shrink", "excl. checkpoint", shrinkTotal-cpCost)

	// Checkpoint-latency distribution over a whole benchmark run: the
	// per-commit latencies land in the checkpoint_latency_cycles histogram,
	// and the paper's "typical vs worst case" story is the p50/p99 spread
	// (stack-change checkpoints copy only the working segment; timer
	// checkpoints may catch a deeper stack).
	p50, p99, err := checkpointLatencyQuantiles()
	if err != nil {
		return Report{}, err
	}
	add("Checkpoint latency (AR run)", "p50", p50)
	add("Checkpoint latency (AR run)", "p99", p99)

	tbl := &table{header: []string{"operation", "configuration", "duration (µs @ 1 MHz)"}}
	for _, r := range ms {
		tbl.add(r.Operation, r.Config, fmt.Sprintf("%d", r.Cycles))
	}
	text := "Table 4 — TICS runtime-operation overheads (simulated cycles; the\n" +
		"paper measured 264/464/656 µs checkpoints at 0/64/256 B segments,\n" +
		"345 µs grow/shrink, 13 vs 308 µs pointer stores, 234 µs rollback).\n\n" +
		tbl.String()
	return Report{
		ID:    "table4",
		Title: "TICS runtime-operation overheads",
		Text:  text,
		Data:  map[string]any{"measurements": ms},
	}, nil
}

// checkpointLatencyQuantiles runs the AR benchmark on TICS under
// duty-cycled power (timer checkpoints on) with an attached auditor and
// returns the p50/p99 of the committed-checkpoint latency histogram.
func checkpointLatencyQuantiles() (int64, int64, error) {
	img, err := tics.Build(apps.AR().Source, tics.BuildOptions{Runtime: tics.RTTICS})
	if err != nil {
		return 0, 0, err
	}
	rec := obs.NewRecorder(obs.Options{RingCap: 64})
	m, err := tics.NewMachine(img, tics.RunOptions{
		Power:          &power.DutyCycle{Rate: 0.48, OnMs: 40},
		Sensors:        sensors.NewBank(3),
		AutoCpPeriodMs: 10,
		Recorder:       rec,
	})
	if err != nil {
		return 0, 0, err
	}
	aud, err := audit.Attach(m, audit.Options{})
	if err != nil {
		return 0, 0, err
	}
	res, err := m.Run()
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return 0, 0, fmt.Errorf("table4 latency run did not complete (starved=%v)", res.Starved)
	}
	if err := aud.Err(); err != nil {
		return 0, 0, err
	}
	h := rec.Metrics().Histogram("checkpoint_latency_cycles")
	if h == nil || h.Count == 0 {
		return 0, 0, fmt.Errorf("table4: no checkpoint latencies recorded")
	}
	return int64(h.Quantile(0.50)), int64(h.Quantile(0.99)), nil
}

// lastCommitLatency returns the event-derived latency (Arg1) of the most
// recent checkpoint-commit event in the machine's flight recorder.
func lastCommitLatency(rec *obs.Recorder) (int64, bool) {
	evs := rec.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == obs.EvCheckpointCommit {
			return evs[i].Arg1, true
		}
	}
	return 0, false
}

// measureCp samples the current checkpoint cost on a scratch basis.
func measureCp(m *vm.Machine, rt *core.TICS) int64 {
	c0 := m.Cycles()
	rt.Checkpoint(m, vm.CpManual)
	return m.Cycles() - c0
}
