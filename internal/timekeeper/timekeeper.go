// Package timekeeper models persistent time sources that survive power
// failures. The paper's TICS requires a remanence-based timer or a
// capacitor-backed RTC so that the runtime can update shadow timestamps
// and evaluate @expires/@timely conditions across outages; the error the
// keeper makes while the device is off is the interesting property, and
// it is pluggable here.
//
// The VM advances the keeper with the true elapsed on-time and off-time;
// the keeper answers Now() with its *estimate* of elapsed milliseconds.
package timekeeper

// Keeper is a persistent clock.
type Keeper interface {
	// Name identifies the keeper in experiment reports.
	Name() string
	// Now returns the keeper's current estimate of elapsed time in ms.
	Now() int64
	// AdvanceOn accounts for ms of powered execution (always accurate:
	// the MCU's own timer runs while powered).
	AdvanceOn(ms float64)
	// AdvanceOff accounts for a power outage of truly ms milliseconds; the
	// keeper may estimate it with error.
	AdvanceOff(ms float64)
	// Clone returns an independent copy of the keeper in its current
	// state (machine snapshots carry one).
	Clone() Keeper
}

// Perfect is an ideal persistent clock (an external RTC with unlimited
// backup). It is the oracle against which error models are compared.
type Perfect struct{ est float64 }

func (p *Perfect) Name() string         { return "perfect" }
func (p *Perfect) Clone() Keeper        { c := *p; return &c }
func (p *Perfect) Now() int64           { return int64(p.est) }
func (p *Perfect) AdvanceOn(ms float64) { p.est += ms }
func (p *Perfect) AdvanceOff(ms float64) {
	p.est += ms
}

// RTC is a capacitor-backed real-time clock with a coarse tick: off-times
// are measured but quantized to ResolutionMs (e.g. a 1/32768 Hz prescaler
// chain read at 10 ms granularity).
type RTC struct {
	ResolutionMs float64
	est          float64
}

func (r *RTC) Name() string         { return "rtc" }
func (r *RTC) Clone() Keeper        { c := *r; return &c }
func (r *RTC) Now() int64           { return int64(r.est) }
func (r *RTC) AdvanceOn(ms float64) { r.est += ms }
func (r *RTC) AdvanceOff(ms float64) {
	res := r.ResolutionMs
	if res <= 0 {
		res = 1
	}
	ticks := float64(int64(ms / res))
	r.est += ticks * res
}

// Remanence models a TARDIS/CusTARD-style remanence-decay timer: the
// off-time estimate carries a bounded multiplicative error that varies
// deterministically per outage, and saturates at MaxOffMs (once the decay
// completes, longer outages are indistinguishable — the keeper can only
// report "at least MaxOffMs").
type Remanence struct {
	ErrFrac  float64 // maximum fractional error per outage, e.g. 0.1
	MaxOffMs float64 // decay horizon; longer outages saturate
	est      float64
	rng      uint64
}

// NewRemanence builds a remanence keeper with the given error fraction and
// decay horizon.
func NewRemanence(errFrac, maxOffMs float64, seed uint64) *Remanence {
	return &Remanence{ErrFrac: errFrac, MaxOffMs: maxOffMs, rng: seed | 1}
}

func (t *Remanence) Name() string         { return "remanence" }
func (t *Remanence) Clone() Keeper        { c := *t; return &c }
func (t *Remanence) Now() int64           { return int64(t.est) }
func (t *Remanence) AdvanceOn(ms float64) { t.est += ms }

func (t *Remanence) AdvanceOff(ms float64) {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	u := float64(t.rng%2001)/1000.0 - 1 // [-1, 1]
	obs := ms
	if t.MaxOffMs > 0 && obs > t.MaxOffMs {
		obs = t.MaxOffMs
	}
	obs *= 1 + t.ErrFrac*u
	if obs < 0 {
		obs = 0
	}
	t.est += obs
}
