package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Registry is a small, dependency-free metrics registry: named counters,
// gauges, and fixed-bucket histograms. It replaces the ad-hoc
// map[string]int64 stats plumbing: runtimes keep a Registry and expose
// the old map through CounterSnapshot, which is a defensive copy — a
// caller mutating the returned map can no longer corrupt live counters.
//
// Not safe for concurrent use; every machine/runtime owns its own.
type Registry struct {
	counters map[string]*int64
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// order lists every metric in registration order, which is what
	// SaveValues and LoadValues walk instead of the maps.
	order []metricRef
}

// metricRef is one registered metric: exactly one of c, g, h is set.
type metricRef struct {
	name string
	c    *int64
	g    *Gauge
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*int64{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Gauge is a settable instantaneous value — the metric shape for things
// that go up and down (heap in use, goroutine count, phase seconds).
// Like counters, hot paths hold the *Gauge from GaugeRef and mutate it
// directly instead of re-resolving the name per sample.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return g.v }

// GaugeRef returns a stable handle to a named gauge, creating it at zero
// first — the gauge analogue of CounterRef.
func (g *Registry) GaugeRef(name string) *Gauge {
	ga, ok := g.gauges[name]
	if !ok {
		ga = &Gauge{}
		g.gauges[name] = ga
		g.order = append(g.order, metricRef{name: name, g: ga})
	}
	return ga
}

// CounterRef returns a stable pointer to a counter's cell, creating it
// at zero first. Hot emission paths (the recorder bumps a counter per
// event) cache the ref once and increment through it, skipping the map
// lookup per event.
func (g *Registry) CounterRef(name string) *int64 {
	c, ok := g.counters[name]
	if !ok {
		c = new(int64)
		g.counters[name] = c
		g.order = append(g.order, metricRef{name: name, c: c})
	}
	return c
}

// LazyCounter is a counter cell resolved on its first increment. A hot
// path (one increment per store instruction) skips the per-increment
// name lookup, yet the name stays out of the registry — and out of
// CounterSnapshot — until the counter is first bumped.
type LazyCounter struct {
	reg  *Registry
	name string
	cell *int64
}

// Lazy returns a LazyCounter for the named counter.
func (g *Registry) Lazy(name string) LazyCounter { return LazyCounter{reg: g, name: name} }

// In returns the same counter in another registry: a runtime clone
// rebinds its counters to its cloned registry.
func (c LazyCounter) In(reg *Registry) LazyCounter { return reg.Lazy(c.name) }

// Inc adds 1, registering the counter on first use.
func (c *LazyCounter) Inc() {
	if c.cell == nil {
		c.cell = c.reg.CounterRef(c.name)
	}
	*c.cell++
}

// Inc adds 1 to a counter, creating it at zero first.
func (g *Registry) Inc(name string) { *g.CounterRef(name)++ }

// Add adds d to a counter.
func (g *Registry) Add(name string, d int64) { *g.CounterRef(name) += d }

// Counter reads a counter (0 if absent).
func (g *Registry) Counter(name string) int64 {
	if c, ok := g.counters[name]; ok {
		return *c
	}
	return 0
}

// SetGauge sets a gauge to v.
func (g *Registry) SetGauge(name string, v float64) { g.GaugeRef(name).Set(v) }

// Gauge reads a gauge (0 if absent).
func (g *Registry) Gauge(name string) float64 {
	if ga, ok := g.gauges[name]; ok {
		return ga.Value()
	}
	return 0
}

// Reset zeroes every metric in place: counters and gauges read 0 and
// histograms are empty, but every name stays registered and every ref
// handed out by CounterRef, GaugeRef or RegisterHistogram stays valid.
func (g *Registry) Reset() {
	for _, m := range g.order {
		m.reset()
	}
}

// Clone returns an independent copy of the registry, with the same
// registration order. Runtime clones (machine snapshots) use it, so it
// allocates every counter cell in one slab.
func (g *Registry) Clone() *Registry {
	c := &Registry{
		counters: make(map[string]*int64, len(g.counters)),
		gauges:   make(map[string]*Gauge, len(g.gauges)),
		hists:    make(map[string]*Histogram, len(g.hists)),
		order:    make([]metricRef, len(g.order)),
	}
	cells := make([]int64, len(g.counters))
	for i, m := range g.order {
		switch {
		case m.c != nil:
			cells[0] = *m.c
			m.c, cells = &cells[0], cells[1:]
			c.counters[m.name] = m.c
		case m.g != nil:
			m.g = &Gauge{v: m.g.v}
			c.gauges[m.name] = m.g
		default:
			m.h = m.h.Clone()
			c.hists[m.name] = m.h
		}
		c.order[i] = m
	}
	return c
}

// Values is a registry's metric values held outside it, in registration
// order: what a recorder snapshot keeps of its registry.
type Values struct {
	names  []string
	ints   []int64   // counters; each histogram's Count then Counts
	floats []float64 // gauges; each histogram's Sum, Min, Max
}

// SaveValues copies every metric's value into v, reusing v's storage.
func (g *Registry) SaveValues(v *Values) {
	v.names, v.ints, v.floats = v.names[:0], v.ints[:0], v.floats[:0]
	for _, m := range g.order {
		v.names = append(v.names, m.name)
		switch {
		case m.c != nil:
			v.ints = append(v.ints, *m.c)
		case m.g != nil:
			v.floats = append(v.floats, m.g.v)
		default:
			v.ints = append(append(v.ints, m.h.Count), m.h.Counts...)
			v.floats = append(v.floats, m.h.Sum, m.h.Min, m.h.Max)
		}
	}
}

// LoadValues gives the registry's metrics the values SaveValues put in
// v, in place (every ref stays valid); metrics registered after those
// read zero. The registry must have registered v's metrics first, in
// the same order and shapes — two recorders built alike do — and
// LoadValues panics if it has not.
func (g *Registry) LoadValues(v *Values) {
	if len(v.names) > len(g.order) {
		panic("obs: LoadValues into a registry with fewer metrics")
	}
	ints, floats := v.ints, v.floats
	for i, m := range g.order {
		if i >= len(v.names) {
			m.reset()
			continue
		}
		if m.name != v.names[i] {
			panic(fmt.Sprintf("obs: LoadValues: metric %d is %q here, %q in the values", i, m.name, v.names[i]))
		}
		switch {
		case m.c != nil:
			*m.c, ints = ints[0], ints[1:]
		case m.g != nil:
			m.g.v, floats = floats[0], floats[1:]
		default:
			m.h.Count = ints[0]
			ints = ints[1+copy(m.h.Counts, ints[1:len(m.h.Counts)+1]):]
			m.h.Sum, m.h.Min, m.h.Max, floats = floats[0], floats[1], floats[2], floats[3:]
		}
	}
}

// reset zeroes the metric.
func (m metricRef) reset() {
	switch {
	case m.c != nil:
		*m.c = 0
	case m.g != nil:
		m.g.v = 0
	default:
		m.h.Reset()
	}
}

// RegisterHistogram creates a histogram with the given ascending upper
// bucket bounds (an implicit +Inf bucket is appended). Re-registering an
// existing name keeps the existing histogram.
func (g *Registry) RegisterHistogram(name string, bounds []float64) *Histogram {
	if h, ok := g.hists[name]; ok {
		return h
	}
	h := NewHistogram(bounds)
	g.hists[name] = h
	g.order = append(g.order, metricRef{name: name, h: h})
	return h
}

// Observe records v into a histogram, creating it with default
// power-of-four bounds when it does not exist yet.
func (g *Registry) Observe(name string, v float64) {
	h, ok := g.hists[name]
	if !ok {
		h = g.RegisterHistogram(name, defaultBounds())
	}
	h.Observe(v)
}

// Histogram returns a registered histogram (nil if absent).
func (g *Registry) Histogram(name string) *Histogram { return g.hists[name] }

// Merge folds every metric of other into g: counters add, gauges add,
// and histograms merge bucket-wise. A histogram g does not have yet is
// deep-copied in; merging histograms with different bucket bounds is an
// error (the fleet gives every worker identically-registered recorders,
// so in practice bounds always line up). other is not modified. This is
// how the fleet's worker registries fold into fleet totals.
func (g *Registry) Merge(other *Registry) error {
	for k, v := range other.counters {
		*g.CounterRef(k) += *v
	}
	for k, v := range other.gauges {
		g.GaugeRef(k).Add(v.Value())
	}
	for k, oh := range other.hists {
		h, ok := g.hists[k]
		if !ok {
			g.hists[k] = oh.Clone()
			continue
		}
		if err := h.Merge(oh); err != nil {
			return fmt.Errorf("obs: merge histogram %q: %w", k, err)
		}
	}
	return nil
}

// CounterSnapshot returns a fresh copy of all counters — the
// vm.Runtime.Stats compatibility shim.
func (g *Registry) CounterSnapshot() map[string]int64 {
	out := make(map[string]int64, len(g.counters))
	for k, v := range g.counters {
		out[k] = *v
	}
	return out
}

// Dump writes every metric in deterministic sorted order.
func (g *Registry) Dump(w io.Writer) {
	for _, k := range sortedKeys(g.counters) {
		fmt.Fprintf(w, "counter %-32s %d\n", k, *g.counters[k])
	}
	for _, k := range sortedKeys(g.gauges) {
		fmt.Fprintf(w, "gauge   %-32s %g\n", k, g.gauges[k].Value())
	}
	hk := make([]string, 0, len(g.hists))
	for k := range g.hists {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, k := range hk {
		h := g.hists[k]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "hist    %-32s %s\n", k, h.Summary())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func defaultBounds() []float64 {
	b := make([]float64, 0, 11)
	for v := 1.0; v <= 1<<20; v *= 4 {
		b = append(b, v)
	}
	return b
}

// Histogram is a fixed-bucket histogram: Counts[i] tallies observations
// v <= Bounds[i]; the last bucket catches everything above the top bound.
type Histogram struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{Bounds: b, Counts: make([]int64, len(b)+1)}
	h.Reset()
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Reset empties the histogram, keeping its bounds.
func (h *Histogram) Reset() {
	clear(h.Counts)
	h.Count, h.Sum = 0, 0
	h.Min, h.Max = math.Inf(1), math.Inf(-1)
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{}
	c.copyFrom(h)
	return c
}

// copyFrom makes h a copy of o in place.
func (h *Histogram) copyFrom(o *Histogram) {
	h.Bounds = append(h.Bounds[:0], o.Bounds...)
	h.Counts = append(h.Counts[:0], o.Counts...)
	h.Count, h.Sum, h.Min, h.Max = o.Count, o.Sum, o.Min, o.Max
}

// Merge adds o's observations into h. The bucket bounds must match
// exactly; merging histograms with different shapes loses information,
// so it is refused rather than approximated.
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.Bounds) != len(o.Bounds) {
		return fmt.Errorf("bucket count mismatch: %d vs %d", len(h.Bounds), len(o.Bounds))
	}
	for i, b := range h.Bounds {
		if b != o.Bounds[i] {
			return fmt.Errorf("bucket bound %d mismatch: %g vs %g", i, b, o.Bounds[i])
		}
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	return nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket that contains the target rank, the
// standard fixed-bucket estimator (what promql's histogram_quantile
// does). The estimate is clamped to the observed [Min, Max], which also
// resolves the two unbounded buckets: ranks landing in the first bucket
// interpolate from Min, and ranks landing in the overflow (+Inf) bucket
// report Max. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		// Target rank falls in bucket i: [lo, hi].
		if i >= len(h.Bounds) {
			return h.Max // overflow bucket has no finite upper bound
		}
		hi := h.Bounds[i]
		lo := h.Min
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if lo < h.Min {
			lo = h.Min
		}
		if hi > h.Max {
			hi = h.Max
		}
		if hi <= lo {
			return hi
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return h.Max
}

// Mean returns the running mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Summary renders count/mean/min/max plus the non-empty buckets.
func (h *Histogram) Summary() string {
	if h.Count == 0 {
		return "empty"
	}
	s := fmt.Sprintf("n=%d mean=%.1f min=%g max=%g buckets[", h.Count, h.Mean(), h.Min, h.Max)
	first := true
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if !first {
			s += " "
		}
		first = false
		if i < len(h.Bounds) {
			s += fmt.Sprintf("<=%g:%d", h.Bounds[i], c)
		} else {
			s += fmt.Sprintf(">%g:%d", h.Bounds[len(h.Bounds)-1], c)
		}
	}
	return s + "]"
}
