package fleet

import "time"

// The phases of one fleet round, in execution order. Every Report
// carries exactly these phases in exactly this order regardless of
// fleet size or worker count — the *structure* is deterministic even
// though the durations are host wall time. That invariant is what lets
// a dashboard diff rounds and a bench sweep diff hosts.
const (
	PhaseBuild     = "build"     // shared image compile+link
	PhaseDevices   = "devices"   // parallel device execution
	PhaseChannel   = "channel"   // per-device lossy-channel pass
	PhaseGateway   = "gateway"   // arrival sort + dedup/freshness pass
	PhaseTelemetry = "telemetry" // span finalize, anomalies, metric merges
)

// PhaseNames lists the round phases in order.
var PhaseNames = []string{PhaseBuild, PhaseDevices, PhaseChannel, PhaseGateway, PhaseTelemetry}

// PhaseTime is one phase's host wall time within a round.
type PhaseTime struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// phaseClock attributes a round's wall time to phases on the host's
// monotonic clock (time.Since reads the monotonic reading both samples
// carry). Exactly one phase is open at a time; enter closes the
// previous one, so the phase list partitions the instrumented stretch
// of Run with no gaps between phases.
type phaseClock struct {
	times   []PhaseTime
	current int // index into times, -1 when nothing is open
	started time.Time
	began   time.Time // first enter, for the whole-round wall clock
}

func newPhaseClock() *phaseClock {
	pc := &phaseClock{times: make([]PhaseTime, len(PhaseNames)), current: -1}
	for i, name := range PhaseNames {
		pc.times[i] = PhaseTime{Phase: name}
	}
	return pc
}

// enter closes the open phase (if any) and starts the named one.
// Re-entering a phase accumulates, so a phase interleaved with another
// still reports its total.
func (pc *phaseClock) enter(name string) {
	now := time.Now()
	pc.closeAt(now)
	if pc.began.IsZero() {
		pc.began = now
	}
	for i, t := range pc.times {
		if t.Phase == name {
			pc.current = i
			pc.started = now
			return
		}
	}
	panic("fleet: unknown phase " + name) // programming error: not data-dependent
}

// finish closes the open phase and returns the phase partition plus the
// whole-round wall seconds it sits inside.
func (pc *phaseClock) finish() (phases []PhaseTime, wallSeconds float64) {
	now := time.Now()
	pc.closeAt(now)
	if !pc.began.IsZero() {
		wallSeconds = now.Sub(pc.began).Seconds()
	}
	return pc.times, wallSeconds
}

func (pc *phaseClock) closeAt(now time.Time) {
	if pc.current >= 0 {
		pc.times[pc.current].Seconds += now.Sub(pc.started).Seconds()
		pc.current = -1
	}
}

// PhaseSeconds resolves one phase's seconds from a phase list (0 when
// absent — callers treat a missing phase as "instant", never an error).
func PhaseSeconds(phases []PhaseTime, name string) float64 {
	for _, p := range phases {
		if p.Phase == name {
			return p.Seconds
		}
	}
	return 0
}

// PhaseMap converts the ordered phase list to a name→seconds map (the
// shape the dashboard summary and the bench schema serialize).
func PhaseMap(phases []PhaseTime) map[string]float64 {
	m := make(map[string]float64, len(phases))
	for _, p := range phases {
		m[p.Phase] = p.Seconds
	}
	return m
}
