// Package timekeeper models persistent time sources that survive power
// failures. The paper's TICS requires a remanence-based timer or a
// capacitor-backed RTC so that the runtime can update shadow timestamps
// and evaluate @expires/@timely conditions across outages; the error the
// keeper makes while the device is off is the interesting property, and
// it is pluggable here.
//
// While the device is powered the MCU's own timer is exact, so the
// machine keeps the running estimate itself and adds each on-time to it.
// A keeper only estimates off-times: the machine adds its answer for each
// outage to the estimate.
package timekeeper

// Keeper is a persistent clock's off-time estimator.
type Keeper interface {
	// Name identifies the keeper in experiment reports.
	Name() string
	// OffEstimate returns the keeper's estimate of a power outage of
	// truly ms milliseconds; it may err, and may change the keeper's
	// state (a remanence timer draws its error).
	OffEstimate(ms float64) float64
	// Clone returns an independent copy of the keeper in its current
	// state (machine snapshots carry one).
	Clone() Keeper
}

// Perfect is an ideal persistent clock (an external RTC with unlimited
// backup). It is the oracle against which error models are compared.
type Perfect struct{}

func (p *Perfect) Name() string                   { return "perfect" }
func (p *Perfect) Clone() Keeper                  { c := *p; return &c }
func (p *Perfect) OffEstimate(ms float64) float64 { return ms }

// RTC is a capacitor-backed real-time clock with a coarse tick: off-times
// are measured but quantized to ResolutionMs (e.g. a 1/32768 Hz prescaler
// chain read at 10 ms granularity).
type RTC struct {
	ResolutionMs float64
}

func (r *RTC) Name() string  { return "rtc" }
func (r *RTC) Clone() Keeper { c := *r; return &c }
func (r *RTC) OffEstimate(ms float64) float64 {
	res := r.ResolutionMs
	if res <= 0 {
		res = 1
	}
	ticks := float64(int64(ms / res))
	return ticks * res
}

// Remanence models a TARDIS/CusTARD-style remanence-decay timer: the
// off-time estimate carries a bounded multiplicative error that varies
// deterministically per outage, and saturates at MaxOffMs (once the decay
// completes, longer outages are indistinguishable — the keeper can only
// report "at least MaxOffMs").
type Remanence struct {
	ErrFrac  float64 // maximum fractional error per outage, e.g. 0.1
	MaxOffMs float64 // decay horizon; longer outages saturate
	rng      uint64
}

// NewRemanence builds a remanence keeper with the given error fraction and
// decay horizon.
func NewRemanence(errFrac, maxOffMs float64, seed uint64) *Remanence {
	return &Remanence{ErrFrac: errFrac, MaxOffMs: maxOffMs, rng: seed | 1}
}

func (t *Remanence) Name() string  { return "remanence" }
func (t *Remanence) Clone() Keeper { c := *t; return &c }

func (t *Remanence) OffEstimate(ms float64) float64 {
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
	return obs
}
