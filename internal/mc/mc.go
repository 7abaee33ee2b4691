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
//     power) on pooled COW-forked machines, with the trace auditor and a
//     data-freshness tracker attached. Depth > 1 recurses: stamps of the
//     interrupted run seed second reboots after the first.
//  4. Per schedule, assert: every auditor invariant (rollback exactness,
//     undo completeness, checkpoint atomicity, register exactness, time
//     consistency), forward progress, send exactly-once (virtualized
//     sends must commit strictly consecutive sequence numbers), committed
//     NVM equality against the oracle (time-insensitive programs only),
//     payload freshness (no value older than its @expires_after budget is
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
	"sort"

	"repro/internal/fleet"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
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
func Sweep(cfg Config) (*Report, error) {
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
	spec := cfg.Spec
	spec.Power = "continuous"

	img, _, err := replay.BuildImage(spec)
	if err != nil {
		return nil, err
	}
	prov, err := buildProvenance(img)
	if err != nil {
		return nil, err
	}
	insensitive, err := timeInsensitive(img)
	if err != nil {
		return nil, err
	}

	r := &runner{img: img, spec: spec, prov: prov, budgetMs: cfg.AssumeBudgetMs, pool: make(chan *vm.Machine, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		r.pool <- nil
	}

	// Phase 1: the oracle.
	oracle, err := r.run(nil, true, true)
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
		r.spec.MaxCycles = oracle.cycles*4 + 1_000_000
	}

	// Phase 2..Depth+1: breadth-first over reboot counts.
	level := [][]power.SchedWindow{nil} // parents (nil = the oracle)
	parents := []runOutcome{oracle}
	for depth := 1; depth <= cfg.Depth; depth++ {
		var schedules [][]power.SchedWindow
		for pi, parent := range parents {
			prefix := level[pi]
			// Later reboots must land after the earlier windows end.
			base := int64(0)
			for _, w := range prefix {
				base += w.Cycles
			}
			for _, c := range boundariesFrom(parent.stamps, base, parent.cycles) {
				sched := append(append([]power.SchedWindow{}, prefix...),
					power.SchedWindow{Cycles: c, OffMs: cfg.OffMs})
				schedules = append(schedules, sched)
			}
		}
		if depth == 1 {
			rep.Boundaries = len(schedules)
		}
		if cfg.MaxSchedules > 0 && len(schedules) > cfg.MaxSchedules {
			kept := stride(schedules, cfg.MaxSchedules)
			rep.Dropped += len(schedules) - len(kept)
			logf("depth %d: downsampled %d schedules to %d (even stride)", depth, len(schedules), len(kept))
			schedules = kept
		}
		logf("depth %d: %d schedules", depth, len(schedules))

		outcomes := make([]runOutcome, len(schedules))
		errs := make([]error, len(schedules))
		collectStamps := depth < cfg.Depth
		fleet.ParallelFor(len(schedules), cfg.Workers, func(i int) {
			outcomes[i], errs[i] = r.run(schedules[i], insensitive, collectStamps)
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		for i, out := range outcomes {
			rep.Schedules++
			rep.CyclesExplored += out.cycles
			powerSpec := (&power.Schedule{Windows: schedules[i]}).Name()
			var cycles []int64
			for _, w := range schedules[i] {
				cycles = append(cycles, w.Cycles)
			}
			rep.Findings = append(rep.Findings, judge(cfg, insensitive, false, out, oracle, powerSpec, cycles)...)
		}
		level = schedules
		parents = outcomes
	}
	return rep, nil
}

// boundariesFrom turns cycle stamps into candidate window lengths
// relative to base (the cycles already consumed by earlier windows):
// for each stamp S > base the windows S-base-1 and S-base, deduplicated
// and sorted.
func boundariesFrom(stamps []int64, base, total int64) []int64 {
	seen := map[int64]bool{}
	for _, s := range stamps {
		if s <= base || s >= total {
			continue
		}
		for _, c := range []int64{s - base - 1, s - base} {
			if c >= 1 {
				seen[c] = true
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stride keeps max schedules with an even deterministic stride.
func stride[T any](in []T, max int) []T {
	out := make([]T, 0, max)
	n := len(in)
	for i := 0; i < max; i++ {
		out = append(out, in[i*n/max])
	}
	return out
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
