// Package mc is the exhaustive reset-point model checker: where
// internal/audit judges the single execution it watched and the fuzzers
// sample a few more, mc enumerates *every* reboot point of a program
// (small-scope, cycle-exact) and checks each interrupted schedule against
// the uninterrupted oracle run.
//
// The procedure:
//
//  1. Run the program once uninterrupted (the oracle), collecting every
//     instrumentation-boundary cycle stamp — each emitted event and each
//     program store.
//  2. Enumerate candidate reboot points: for every stamp S the windows
//     S-1 and S, so a power failure lands both on the stamped operation
//     and on the instruction boundary before it.
//  3. Re-execute each schedule (one window per reboot, then continuous
//     power) on pooled COW-forked machines, with the trace auditor
//     attached as the run's one observer: it checks the committed-state
//     invariants and keeps the freshness record (when each global's value
//     was produced, committed and rolled back with the shadow state, and
//     the age of every committed send's sources). Depth > 1 recurses:
//     stamps of the interrupted run seed second reboots after the first.
//  4. Per schedule, assert: every auditor invariant (rollback exactness,
//     undo completeness, checkpoint atomicity, register exactness, time
//     consistency), forward progress, send exactly-once (virtualized
//     sends must commit strictly consecutive sequence numbers), committed
//     NVM equality against the oracle (time-insensitive programs only),
//     payload freshness (no send source older than its @expires_after
//     budget, or Config.AssumeBudgetMs for an unannotated global, is
//     committed to the radio), and — scenario-gated — committed-effect
//     loss.
//
// Counterexamples are minimized to the earliest failing reboot point and
// carry a canonical "sched:CYCLES@OFF,..." power spec, so every finding
// round-trips through internal/replay as an ordinary replayable manifest.
package mc

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/power"
	"repro/internal/replay"
)

// Config configures one sweep.
type Config struct {
	// Spec is the run being checked. Its Power field is ignored: the
	// oracle runs continuous and the sweep injects its own schedules.
	Spec replay.Spec
	// Depth is the maximum number of reboots per schedule (default 1;
	// 2 explores every pair of reboot points).
	Depth int
	// OffMs is the off-time charged per injected reboot (default 20,
	// matching the fail:N power model). Time-sensitive programs fail or
	// survive depending on it, so it is part of the verdict's identity.
	OffMs float64
	// Workers sizes the sweep pool (default GOMAXPROCS). Results are
	// independent of it.
	Workers int
	// MaxSchedules bounds the schedules executed per depth level
	// (0 = unlimited). When the bound bites, the level is downsampled
	// with a deterministic even stride and the report counts what was
	// dropped — the sweep never truncates silently.
	MaxSchedules int
	// AssumeBudgetMs imposes a freshness budget on sends of unannotated
	// globals (0 = off). Scenario knob for programs that manage
	// data/timestamp pairs manually (the TV004/TV005 shapes) and
	// therefore carry no @expires_after annotation to check against.
	AssumeBudgetMs int64
	// CheckEffectLoss flags schedules that complete but commit fewer
	// sends/outs than the oracle (the TV008 expired-region skip).
	// Scenario-gated: losing an effect is the *correct* handling of
	// expired data, so this is an expectation about the program, not a
	// universal invariant.
	CheckEffectLoss bool
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// Finding is one property violation, pinned to the schedule that
// produced it. Power is the canonical replayable power spec.
type Finding struct {
	Kind     string  `json:"kind"`
	Schedule []int64 `json:"schedule,omitempty"` // reboot windows, in cycles
	Power    string  `json:"power"`
	Detail   string  `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] power=%s: %s", f.Kind, f.Power, f.Detail)
}

// Finding kinds beyond the auditor's checks (whose kinds are the
// audit.Check strings).
const (
	KindFault         = "fault"
	KindProgress      = "progress"
	KindSendOnce      = "send-once"
	KindNVMDivergence = "nvm-divergence"
	KindStaleSend     = "stale-send"
	KindEffectLoss    = "effect-loss"
)

// Report is the deterministic outcome of one sweep: byte-identical
// across worker counts.
type Report struct {
	Spec           replay.Spec         `json:"spec"`
	Depth          int                 `json:"depth"`
	OffMs          float64             `json:"off_ms"`
	Boundaries     int                 `json:"boundaries"`
	Schedules      int                 `json:"schedules"`
	Dropped        int                 `json:"dropped,omitempty"`
	CyclesExplored int64               `json:"cycles_explored"`
	Oracle         replay.ResultDigest `json:"oracle"`
	OracleFindings []Finding           `json:"oracle_findings,omitempty"`
	Findings       []Finding           `json:"findings,omitempty"`
}

// Clean reports whether the sweep verified every schedule.
func (r *Report) Clean() bool {
	return len(r.Findings) == 0 && len(r.OracleFindings) == 0
}

// Counterexample returns the minimized counterexample: the earliest
// failing reboot point at the shallowest depth (oracle findings, which
// need no reboot at all, come first). Nil when the report is clean.
func (r *Report) Counterexample() *Finding {
	if len(r.OracleFindings) > 0 {
		return &r.OracleFindings[0]
	}
	if len(r.Findings) > 0 {
		return &r.Findings[0]
	}
	return nil
}

// Counterexample records a replayable manifest reproducing the finding:
// the finding's power schedule slots into the spec and the run is
// re-executed under replay.Record, so the result verifies with
// replay.Replay + replay.VerifyReplay like any other manifest.
func Counterexample(spec replay.Spec, f Finding) (*replay.Manifest, *replay.Run, error) {
	spec.Power = f.Power
	return replay.Record(spec, nil)
}

// Sweep runs the exhaustive reset-point exploration.
func Sweep(cfg Config) (*Report, error) { return sweep(cfg, false, nil) }

// sweep is Sweep. cold starts every schedule from cold boot instead of
// from an oracle snapshot, and observe, when set, sees every depth
// level's schedules and outcomes; the differential tests use both.
//
// Before running a level, the sweep re-runs the oracle to take snapshots
// once the level's schedules share enough of its prefix to repay them
// (worthSnapshots); every later level uses the same snapshots.
func sweep(cfg Config, cold bool, observe func(schedules [][]power.SchedWindow, outcomes []runOutcome)) (*Report, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.OffMs <= 0 {
		cfg.OffMs = 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	insensitive, err := timeInsensitive(r.img)
	if err != nil {
		return nil, err
	}

	// Phase 1: the oracle.
	oracle, err := r.run(nil, true, true, 0)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Spec:           cfg.Spec,
		Depth:          cfg.Depth,
		OffMs:          cfg.OffMs,
		Oracle:         oracle.digest,
		CyclesExplored: oracle.cycles,
	}
	rep.OracleFindings = judge(cfg, insensitive, true, oracle, oracle, "continuous", nil)
	if oracle.digest.Fault != "" {
		// A program that faults uninterrupted needs no reboot to fail;
		// the oracle manifest is the counterexample.
		logf("oracle run faults (%s); skipping the sweep", oracle.digest.Fault)
		return rep, nil
	}
	if oracle.digest.Completed {
		// Starvation bound for interrupted runs: one reboot redoes at
		// most one checkpoint epoch, so 4x oracle plus slack means "no
		// forward progress", not "slow".
		r.cfg.Spec.MaxCycles = oracle.cycles*4 + 1_000_000
	}

	// Phase 2..Depth+1: breadth-first over reboot counts.
	level := [][]power.SchedWindow{nil} // parents (nil = the oracle)
	parents := []runOutcome{oracle}
	snapshotted := false
	for depth := 1; depth <= cfg.Depth; depth++ {
		start := time.Now()
		schedules, candidates := enumerate(level, parents, cfg.OffMs, cfg.MaxSchedules)
		for i := range parents {
			parents[i].stamps = nil // spent: this level is enumerated
		}
		if depth == 1 {
			rep.Boundaries = candidates
		}
		rep.Dropped += candidates - len(schedules)

		if !cold && !snapshotted && worthSnapshots(schedules, oracle.cycles) {
			if err := r.snapshotOracle(oracle); err != nil {
				return nil, err
			}
			snapshotted = true
		}
		outcomes := make([]runOutcome, len(schedules))
		errs := make([]error, len(schedules))
		collectStamps := depth < cfg.Depth
		fleet.ParallelFor(len(schedules), cfg.Workers, func(i int) {
			outcomes[i], errs[i] = r.run(schedules[i], insensitive, collectStamps, 0)
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		if observe != nil {
			observe(schedules, outcomes)
		}
		var cycles int64
		resumed := 0
		for i, out := range outcomes {
			rep.Schedules++
			cycles += out.cycles
			if out.resumedAt > 0 {
				resumed++
			}
			powerSpec := (&power.Schedule{Windows: schedules[i]}).Name()
			var schedule []int64
			for _, w := range schedules[i] {
				schedule = append(schedule, w.Cycles)
			}
			rep.Findings = append(rep.Findings, judge(cfg, insensitive, false, out, oracle, powerSpec, schedule)...)
		}
		rep.CyclesExplored += cycles
		secs := time.Since(start).Seconds()
		logf("depth %d: %d candidates, %d kept, %.0f ms, %.0f schedules/s, %.3g simulated cycles/s, %d resumed from oracle snapshots",
			depth, candidates, len(schedules), secs*1e3, float64(len(schedules))/secs, float64(cycles)/secs, resumed)
		level = schedules
		parents = outcomes
	}
	return rep, nil
}

// enumerate builds the next level's schedules: every parent's prefix
// extended by one reboot at each candidate window boundariesFrom finds in
// the parent's stamps, in parent order. Of the level's n candidates it
// keeps all, or — when max > 0 bounds the level below n — the max at
// global indices i*n/max, an even deterministic stride. Only kept
// schedules are built: a counting pass sizes each parent's candidate
// list, then one forward cursor maps every kept index to its parent and
// offset, re-deriving only the lists a kept index lands in. It returns
// the kept schedules and n.
func enumerate(prefixes [][]power.SchedWindow, parents []runOutcome, offMs float64, max int) ([][]power.SchedWindow, int) {
	var cands []int64
	counts := make([]int, len(parents))
	n := 0
	for pi, p := range parents {
		cands = boundariesFrom(cands[:0], p.stamps, windowsEnd(prefixes[pi]), p.cycles)
		counts[pi] = len(cands)
		n += len(cands)
	}
	keep := n
	if max > 0 && n > max {
		keep = max
	}
	out := make([][]power.SchedWindow, keep)
	pi, lo, hi := -1, 0, 0 // cursor: parent pi's candidates are global indices [lo, hi)
	for i := range out {
		g := i * n / keep
		if g >= hi {
			for g >= hi {
				pi++
				lo, hi = hi, hi+counts[pi]
			}
			p := parents[pi]
			cands = boundariesFrom(cands[:0], p.stamps, windowsEnd(prefixes[pi]), p.cycles)
		}
		prefix := prefixes[pi]
		sched := make([]power.SchedWindow, len(prefix)+1)
		copy(sched, prefix)
		sched[len(prefix)] = power.SchedWindow{Cycles: cands[g-lo], OffMs: offMs}
		out[i] = sched
	}
	return out, n
}

// windowsEnd is the cycle count the windows consume: later reboots must
// land after it.
func windowsEnd(ws []power.SchedWindow) int64 {
	var end int64
	for _, w := range ws {
		end += w.Cycles
	}
	return end
}

// boundariesFrom appends to dst the candidate window lengths of stamps
// relative to base (the cycles already consumed by earlier windows): for
// each stamp S with base < S < total, the windows S-base-1 and S-base,
// deduplicated and sorted. A stamp is the machine's cycle counter at
// emission, so stamps arrive nondecreasing and the candidates come out
// in order; comparing each against the last one kept does the dedup.
func boundariesFrom(dst, stamps []int64, base, total int64) []int64 {
	last := int64(0) // windows are at least one cycle long
	for i, s := range stamps {
		if i > 0 && s < stamps[i-1] {
			panic(fmt.Sprintf("mc: cycle stamp %d follows %d: stamps must be nondecreasing", s, stamps[i-1]))
		}
		if s <= base || s >= total {
			continue
		}
		for _, c := range [2]int64{s - base - 1, s - base} {
			if c > last {
				dst = append(dst, c)
				last = c
			}
		}
	}
	return dst
}

// judge derives findings from one schedule outcome. isOracle marks the
// uninterrupted run judging itself (oracle-relative checks are skipped).
func judge(cfg Config, insensitive, isOracle bool, out, oracle runOutcome, powerSpec string, schedule []int64) []Finding {
	var fs []Finding
	add := func(kind, detail string) {
		fs = append(fs, Finding{Kind: kind, Schedule: schedule, Power: powerSpec, Detail: detail})
	}

	// Auditor invariants, one finding per check kind.
	counts := map[string]int{}
	first := map[string]string{}
	var order []string
	for _, v := range out.violations {
		k := string(v.Check)
		if counts[k] == 0 {
			order = append(order, k)
			first[k] = v.String()
		}
		counts[k]++
	}
	for _, k := range order {
		detail := first[k]
		if counts[k] > 1 {
			detail = fmt.Sprintf("%s (+%d more)", detail, counts[k]-1)
		}
		add(k, detail)
	}

	if out.digest.Fault != "" {
		add(KindFault, "machine fault: "+out.digest.Fault)
	} else if !isOracle && oracle.digest.Completed && !out.digest.Completed {
		if out.digest.TimedOut {
			add(KindProgress, fmt.Sprintf("run exceeded the %0.f ms wall budget the oracle met", cfg.Spec.WallMs))
		} else {
			add(KindProgress, fmt.Sprintf("no forward progress: starved after %d cycles (oracle completed in %d)", out.digest.Cycles, oracle.digest.Cycles))
		}
	}

	if cfg.Spec.Virtualize {
		for i, seq := range out.sendSeqs {
			if seq != int64(i) {
				add(KindSendOnce, fmt.Sprintf("committed send %d carries seq %d: sends did not commit exactly once in order", i, seq))
				break
			}
		}
	}

	if !isOracle && insensitive && oracle.digest.Completed && out.digest.Completed {
		if detail, ok := equalOutcome(out, oracle); !ok {
			add(KindNVMDivergence, detail)
		}
	}

	if len(out.stale) > 0 {
		s := out.stale[0]
		detail := fmt.Sprintf("send at pc=%#x committed %q aged %d ms (budget %d ms, seq %d)",
			s.PC, s.Global, s.AgeMs, s.BudgetMs, s.Seq)
		if len(out.stale) > 1 {
			detail = fmt.Sprintf("%s (+%d more)", detail, len(out.stale)-1)
		}
		add(KindStaleSend, detail)
	}

	if cfg.CheckEffectLoss && !isOracle && oracle.digest.Completed && out.digest.Completed {
		lost := false
		if len(out.sendVals) < len(oracle.sendVals) {
			lost = true
		}
		outTotal, oracleTotal := 0, 0
		for _, vals := range out.outs {
			outTotal += len(vals)
		}
		for _, vals := range oracle.outs {
			oracleTotal += len(vals)
		}
		if outTotal < oracleTotal {
			lost = true
		}
		if lost {
			add(KindEffectLoss, fmt.Sprintf("completed with %d sends / %d outs committed; oracle committed %d / %d",
				len(out.sendVals), outTotal, len(oracle.sendVals), oracleTotal))
		}
	}
	return fs
}
