// Package power models the energy supply of an intermittently powered
// device as a sequence of powered windows separated by off-times. The VM
// consumes cycles from the current window; when the window is exhausted the
// device suffers a power failure (volatile state cleared), waits the
// off-time, and reboots into the next window.
//
// Sources cover the paper's experimental setups: continuous bench power
// (the Table 3/4/Figure 9 measurements), pre-programmed reset traces at a
// given intermittency rate (Table 1), and RF-harvesting with a small
// storage capacitor (Table 2 / Figure 8).
package power

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/energy"
)

// Source yields powered windows.
type Source interface {
	// Name identifies the source in experiment reports.
	Name() string
	// NextWindow returns the number of cycles available in the next powered
	// interval and the off-time in milliseconds that follows the failure
	// ending it. A window of math.MaxInt64 means effectively continuous.
	NextWindow() (cycles int64, offMs float64)
}

// Continuous is bench power: one infinite window.
type Continuous struct{}

func (Continuous) Name() string                 { return "continuous" }
func (Continuous) NextWindow() (int64, float64) { return math.MaxInt64, 0 }
func (Continuous) String() string               { return "continuous" }

var _ Source = Continuous{}

// FailEvery injects a power failure after exactly Cycles cycles, forever.
// The integration suite sweeps Cycles to hit every instruction boundary,
// including mid-checkpoint and mid-undo-log-append.
type FailEvery struct {
	Cycles int64
	OffMs  float64
}

func (f *FailEvery) Name() string { return fmt.Sprintf("fail-every-%d", f.Cycles) }
func (f *FailEvery) NextWindow() (int64, float64) {
	return f.Cycles, f.OffMs
}

// DutyCycle models the pre-programmed reset patterns of Table 1. Rate is
// the fraction of wall-clock time the device is powered (1.0 = continuous);
// OnMs is the length of each powered burst. An "intermittency rate" of r%
// in the paper's Table 1 corresponds to Rate = r/100: at 100% the program
// never loses power, at 4% it reboots after very short bursts.
type DutyCycle struct {
	Rate float64 // fraction of time powered, (0, 1]
	OnMs float64 // powered burst length in milliseconds
}

func (d *DutyCycle) Name() string { return fmt.Sprintf("duty-%.0f%%", d.Rate*100) }
func (d *DutyCycle) NextWindow() (int64, float64) {
	if d.Rate >= 1 {
		return math.MaxInt64, 0
	}
	on := d.OnMs
	if on <= 0 {
		on = 50
	}
	off := on * (1 - d.Rate) / d.Rate
	return int64(on * energy.CyclesPerMs), off
}

// Window is one explicit powered interval of a trace.
type Window struct {
	OnMs  float64
	OffMs float64
}

// Trace replays an explicit on/off schedule; when the schedule runs out it
// either loops (Loop=true) or stays continuous.
type Trace struct {
	Windows []Window
	Loop    bool
	pos     int
}

func (t *Trace) Name() string { return fmt.Sprintf("trace-%d", len(t.Windows)) }
func (t *Trace) NextWindow() (int64, float64) {
	if t.pos >= len(t.Windows) {
		if !t.Loop || len(t.Windows) == 0 {
			return math.MaxInt64, 0
		}
		t.pos = 0
	}
	w := t.Windows[t.pos]
	t.pos++
	return int64(w.OnMs * energy.CyclesPerMs), w.OffMs
}

// SchedWindow is one powered window of a Schedule, cycle-exact. Its JSON
// form is a replay manifest's recorded window.
type SchedWindow struct {
	Cycles int64   `json:"cycles"`
	OffMs  float64 `json:"off_ms"`
}

// Schedule grants an explicit sequence of cycle-exact windows and then
// continuous power. The reset-point model checker (internal/mc) uses it to
// inject reboots at precise instrumentation boundaries: a window of C
// cycles kills the first operation whose cost crosses C, the device waits
// the window's off-time, and the run then finishes unperturbed. Its Name
// round-trips through ParseSchedule, so a schedule embeds verbatim in a
// replay manifest's power spec.
type Schedule struct {
	Windows []SchedWindow
	pos     int
}

// Name renders the canonical "sched:C@OFF,..." spec string.
func (s *Schedule) Name() string {
	var b strings.Builder
	b.WriteString("sched:")
	for i, w := range s.Windows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d@%s", w.Cycles, strconv.FormatFloat(w.OffMs, 'g', -1, 64))
	}
	return b.String()
}

func (s *Schedule) NextWindow() (int64, float64) {
	if s.pos >= len(s.Windows) {
		return math.MaxInt64, 0
	}
	w := s.Windows[s.pos]
	s.pos++
	return w.Cycles, w.OffMs
}

// ParseSchedule parses the "sched:C@OFF,..." syntax Name emits. An empty
// window list ("sched:") is continuous power.
func ParseSchedule(spec string) (*Schedule, error) {
	body, ok := strings.CutPrefix(spec, "sched:")
	if !ok {
		return nil, fmt.Errorf("power: schedule spec %q lacks the sched: prefix", spec)
	}
	s := &Schedule{}
	if body == "" {
		return s, nil
	}
	for _, part := range strings.Split(body, ",") {
		cs, os, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("power: schedule window %q wants CYCLES@OFF_MS", part)
		}
		c, err := strconv.ParseInt(cs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("power: schedule window %q: %v", part, err)
		}
		off, err := strconv.ParseFloat(os, 64)
		if err != nil {
			return nil, fmt.Errorf("power: schedule window %q: %v", part, err)
		}
		if c < 0 || off < 0 {
			return nil, fmt.Errorf("power: schedule window %q is negative", part)
		}
		s.Windows = append(s.Windows, SchedWindow{Cycles: c, OffMs: off})
	}
	return s, nil
}

// Harvester models RF/solar harvesting into a small capacitor (the paper's
// Table 2 setup: a Powercast receiver with a 10 µF capacitor). Each window
// drains the capacitor; the off-time is however long the income takes to
// recharge it to the boot threshold. An optional seeded jitter varies the
// income between windows to mimic fluctuating harvesting conditions.
type Harvester struct {
	Cap       *energy.Capacitor
	RatePerMs float64 // income in cycle-equivalents per millisecond
	Jitter    float64 // fractional income variation in [0,1)
	rng       uint64
}

// NewHarvester builds a harvester source. capacity is in cycle-equivalents
// (one unit powers one cycle); ratePerMs is the charging income.
func NewHarvester(capacity, ratePerMs float64, jitter float64, seed uint64) *Harvester {
	return &Harvester{Cap: energy.NewCapacitor(capacity), RatePerMs: ratePerMs, Jitter: jitter, rng: seed | 1}
}

func (h *Harvester) Name() string { return "harvester" }

func (h *Harvester) next() float64 { // xorshift64*, deterministic
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return float64(h.rng%1000) / 1000.0
}

func (h *Harvester) NextWindow() (int64, float64) {
	rate := h.RatePerMs
	if h.Jitter > 0 {
		rate *= 1 - h.Jitter + 2*h.Jitter*h.next()
	}
	if rate <= 0 {
		rate = 0.01
	}
	off := h.Cap.ChargeUntilOn(rate)
	cycles := h.Cap.Usable()
	h.Cap.Drain(cycles) // the window drains what it offers
	if cycles < 1 {
		cycles = 1
	}
	return cycles, off
}
