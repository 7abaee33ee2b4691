package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

	"repro/internal/obs"
)

// Gateway is the fleet's sink: it deduplicates arrivals by (device,
// sequence) and accounts freshness against an @expires_after-style
// deadline. Dedup by the device's committed send sequence absorbs every
// duplication mode at once — device-side replays after a rollback (the
// raw radio re-sending with the same Seq), link-layer retransmits after
// a lost ACK, and channel echoes — which is what makes the end-to-end
// pipeline exactly-once even when no single hop is.
//
// The gateway is order-independent: per (device, seq) it retains only
// the ArrivalBefore-minimal arrival — the one a gateway observing the
// globally sorted stream would see first — with the freshness budget it
// is judged against, plus a count of all arrivals. Accept may therefore
// be called in any order, wave by wave or batch by batch, and every
// derived view (log, digest, stats, latency) is a pure function of the
// arrival set. The durable ticsgate store (internal/gate) is this same
// core plus a WAL.
type Gateway struct {
	// FreshnessMs is the end-to-end deadline Accept judges arrivals
	// against: a packet whose first arrival lands more than FreshnessMs
	// after its send is expired — delivered data that is too stale to
	// act on, the paper's central time-consistency hazard pushed out to
	// the network. Zero disables.
	FreshnessMs float64

	index    map[gwKey]int // position of each (device, seq) in min
	min      []retained    // per (device, seq): the ArrivalBefore-minimal arrival so far
	arrivals int64
	order    []int // indices into min in ArrivalBefore order; nil once an Accept changes min
}

// retained is the gateway's state for one (device, seq): its first
// arrival and the freshness budget that arrival is judged against.
type retained struct {
	Arrival
	freshMs float64
}

func (r *retained) expired() bool { return r.freshMs > 0 && r.ArriveMs-r.SentMs > r.freshMs }

// LatencyBounds are the fixed bucket bounds (ms) of the gateway's
// end-to-end latency histogram. Shared with the fleet metrics rollup so
// per-run and fleet-level latency estimates come from the same
// obs.Histogram.Quantile math and cannot drift.
var LatencyBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

type gwKey struct {
	dev int
	seq int64
}

// Delivery is one accepted (fresh, first-arrival) packet.
type Delivery struct {
	Dev      int     `json:"dev"`
	Seq      int64   `json:"seq"`
	Value    int32   `json:"value"`
	SentMs   float64 `json:"sent_ms"`
	ArriveMs float64 `json:"arrive_ms"`
}

// GatewayStats counts what the gateway did with the arrival stream.
type GatewayStats struct {
	Arrivals   int64 `json:"arrivals"`   // frames observed
	Delivered  int64 `json:"delivered"`  // unique fresh packets accepted
	Duplicates int64 `json:"duplicates"` // repeat (device, seq) arrivals dropped
	Expired    int64 `json:"expired"`    // unique packets past the freshness deadline
}

// NewGateway builds an empty gateway with the given freshness deadline
// (0 = no deadline).
func NewGateway(freshnessMs float64) *Gateway {
	return &Gateway{FreshnessMs: freshnessMs, index: make(map[gwKey]int)}
}

// Accept folds one arrival into the gateway, judged against
// FreshnessMs. Arrivals may come in any order.
func (g *Gateway) Accept(a Arrival) { g.AcceptWithin(a, g.FreshnessMs) }

// AcceptWithin is Accept with the arrival's own freshness budget (0 =
// none) — how one ticsgate serves fleets with different deadlines.
func (g *Gateway) AcceptWithin(a Arrival, freshMs float64) {
	g.arrivals++
	k := gwKey{a.Dev, a.Seq}
	switch i, ok := g.index[k]; {
	case !ok:
		g.index[k] = len(g.min)
		g.min = append(g.min, retained{a, freshMs})
	case ArrivalBefore(a, g.min[i].Arrival):
		g.min[i] = retained{a, freshMs}
	default:
		return
	}
	g.order = nil
}

// AddDuplicates counts n arrivals that lost to already-retained minima
// without replaying them — how a snapshot, which keeps only the minima
// and the arrival total, restores the duplicate count.
func (g *Gateway) AddDuplicates(n int64) { g.arrivals += n }

// ordered returns the indices of the retained minima in ArrivalBefore
// order, sorting once per change. Keys are distinct, so the order is
// total.
func (g *Gateway) ordered() []int {
	if g.order == nil && len(g.min) > 0 {
		g.order = make([]int, len(g.min))
		for i := range g.order {
			g.order[i] = i
		}
		slices.SortFunc(g.order, func(i, j int) int {
			switch {
			case ArrivalBefore(g.min[i].Arrival, g.min[j].Arrival):
				return -1
			case ArrivalBefore(g.min[j].Arrival, g.min[i].Arrival):
				return 1
			}
			return 0
		})
	}
	return g.order
}

// Retained calls fn for every retained first arrival, in ArrivalBefore
// order, with the freshness budget it is judged against.
func (g *Gateway) Retained(fn func(a Arrival, freshMs float64)) {
	for _, i := range g.ordered() {
		r := &g.min[i]
		fn(r.Arrival, r.freshMs)
	}
}

// Stats returns the gateway counters.
func (g *Gateway) Stats() GatewayStats {
	st := GatewayStats{Arrivals: g.arrivals, Duplicates: g.arrivals - int64(len(g.min))}
	for i := range g.min {
		if g.min[i].expired() {
			st.Expired++
		} else {
			st.Delivered++
		}
	}
	return st
}

// deviceCounts returns the delivered and expired packet counts of
// devices [0, n) — the per-device view the anomaly pass
// (freshness-loss hotspots) reads.
func (g *Gateway) deviceCounts(n int) (delivered, expired []int64) {
	delivered, expired = make([]int64, n), make([]int64, n)
	for i := range g.min {
		r := &g.min[i]
		switch {
		case r.Dev < 0 || r.Dev >= n:
		case r.expired():
			expired[r.Dev]++
		default:
			delivered[r.Dev]++
		}
	}
	return delivered, expired
}

// Log returns the accepted deliveries in observation (ArrivalBefore)
// order.
func (g *Gateway) Log() []Delivery {
	var out []Delivery
	for _, i := range g.ordered() {
		r := &g.min[i]
		if !r.expired() {
			out = append(out, Delivery{Dev: r.Dev, Seq: r.Seq, Value: r.Value, SentMs: r.SentMs, ArriveMs: r.ArriveMs})
		}
	}
	return out
}

// Unique returns how many distinct (device, sequence) packets arrived,
// fresh or expired.
func (g *Gateway) Unique() int { return len(g.min) }

// DeviceLog returns the deliveries attributed to one device, in
// observation order — the view `ticsrun -seq` output diffs against.
func (g *Gateway) DeviceLog(dev int) []Delivery {
	var out []Delivery
	for _, d := range g.Log() {
		if d.Dev == dev {
			out = append(out, d)
		}
	}
	return out
}

// Digest is a SHA-256 over the delivery log's canonical rendering — the
// fleet's one-line determinism witness: identical digests mean identical
// deliveries in identical order. The standalone gateway service hashes
// its durable state through this same method, which is what makes an
// HTTP-attached fleet's digest byte-comparable to an in-process run of
// the same manifest.
func (g *Gateway) Digest() string {
	h := sha256.New()
	var buf []byte
	for _, i := range g.ordered() {
		if r := &g.min[i]; !r.expired() {
			buf = appendDigestLine(buf, &r.Arrival)
			if len(buf) >= 4096 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// appendDigestLine appends one delivery's canonical line, "dev seq value
// sent arrive\n" with both times to six decimals — the bytes
// fmt's "%d %d %d %.6f %.6f\n" renders, for every float including ±0,
// ±Inf and NaN (pinned by TestDigestLineMatchesFmt).
func appendDigestLine(b []byte, a *Arrival) []byte {
	b = strconv.AppendInt(b, int64(a.Dev), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, a.Seq, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(a.Value), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, a.SentMs, 'f', 6, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, a.ArriveMs, 'f', 6, 64)
	return append(b, '\n')
}

// LatencyHistogram builds the end-to-end delivery latency histogram
// over LatencyBounds, observed in log order so its Sum is a pure
// function of the arrival set. The fleet rollup merges it into the
// fleet-wide registry (bounds always match).
func (g *Gateway) LatencyHistogram() *obs.Histogram {
	h := obs.NewHistogram(LatencyBounds)
	for _, i := range g.ordered() {
		r := &g.min[i]
		if !r.expired() {
			h.Observe(r.ArriveMs - r.SentMs)
		}
	}
	return h
}

// LatencyQuantile returns the q-quantile (0..1) of end-to-end delivery
// latency in ms (0 when none). It delegates to obs.Histogram.Quantile
// over LatencyBounds, the same estimator every other latency surface in
// the repo uses — so a fleet report, a merged metrics dump, and a
// Prometheus histogram_quantile over the exported buckets all agree.
func (g *Gateway) LatencyQuantile(q float64) float64 { return g.LatencyHistogram().Quantile(q) }

// Summary bundles the accounting a finishing fleet reports — the same
// fields a remote gateway's Finalize returns.
func (g *Gateway) Summary() RemoteSummary {
	h := g.LatencyHistogram()
	return RemoteSummary{
		Stats:  g.Stats(),
		Unique: int64(g.Unique()),
		P50Ms:  h.Quantile(0.50),
		P99Ms:  h.Quantile(0.99),
		Digest: g.Digest(),
	}
}
