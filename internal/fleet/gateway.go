package fleet

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
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
//
// The derived views read a kept log: the retained minima in
// ArrivalBefore order, with the digest line of each delivered one
// rendered once. A read merges in only the minima appended or replaced
// since the previous read, so a long-lived gateway pays for what
// changed, not for everything it holds.
type Gateway struct {
	// FreshnessMs is the end-to-end deadline Accept judges arrivals
	// against: a packet whose first arrival lands more than FreshnessMs
	// after its send is expired — delivered data that is too stale to
	// act on, the paper's central time-consistency hazard pushed out to
	// the network. Zero disables.
	FreshnessMs float64

	index              map[gwKey]int // position of each (device, seq) in min
	min                []retained    // per (device, seq): the ArrivalBefore-minimal arrival so far
	arrivals           int64
	delivered, expired int64 // retained minima by verdict

	// The kept log, as of the last read: every slot of min below merged
	// in ArrivalBefore order, and the digest lines of the delivered ones
	// back to back in that order. Slots below merged that Accept has
	// replaced since are listed once in replaced and flagged in stale.
	order    []logEntry
	lines    []byte
	merged   int
	replaced []int32
	stale    []uint64 // bit per slot
}

// logEntry is one retained minimum's place in the kept log: its slot,
// its arrival time (the leading ArrivalBefore key), its latency for the
// histogram and the length of its digest line in lines (0 when it is
// expired; a line is under 700 bytes even for ±MaxFloat64 times).
type logEntry struct {
	at   float64
	lat  float64
	slot int32
	n    uint16
}

// compare orders log entries as ArrivalBefore orders their arrivals.
// Minima never share (device, seq), so Attempt and Echo never decide;
// device and seq are read from the slot on a time tie, and stay valid
// for a replaced slot's old entry because a replacement keeps both.
// cmp.Compare keeps the order total even for a NaN arrival time.
func (g *Gateway) compare(a, b *logEntry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	ra, rb := &g.min[a.slot], &g.min[b.slot]
	if c := cmp.Compare(ra.Dev, rb.Dev); c != 0 {
		return c
	}
	return cmp.Compare(ra.Seq, rb.Seq)
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
	i, ok := g.index[k]
	switch {
	case !ok:
		i = len(g.min)
		g.index[k] = i
		g.min = append(g.min, retained{a, freshMs})
	case ArrivalBefore(a, g.min[i].Arrival):
		g.count(&g.min[i], -1)
		g.min[i] = retained{a, freshMs}
		if w, bit := i/64, uint64(1)<<(i%64); i < g.merged && g.stale[w]&bit == 0 {
			g.stale[w] |= bit
			g.replaced = append(g.replaced, int32(i))
		}
	default:
		return
	}
	g.count(&g.min[i], 1)
}

// count adds d to the verdict counter of r.
func (g *Gateway) count(r *retained, d int64) {
	if r.expired() {
		g.expired += d
	} else {
		g.delivered += d
	}
}

// AddDuplicates counts n arrivals that lost to already-retained minima
// without replaying them — how a snapshot, which keeps only the minima
// and the arrival total, restores the duplicate count.
func (g *Gateway) AddDuplicates(n int64) { g.arrivals += n }

// sync brings the kept log up to date. Only the slots appended or
// replaced since the last read are sorted and rendered; one linear pass
// then merges them into the kept order and lines, dropping the entries
// of replaced slots. The first read of a fresh gateway merges
// everything into the empty log.
func (g *Gateway) sync() {
	if g.merged == len(g.min) && len(g.replaced) == 0 {
		return
	}
	fresh := make([]logEntry, 0, len(g.replaced)+len(g.min)-g.merged)
	entry := func(i int32) logEntry {
		r := &g.min[i]
		return logEntry{at: r.ArriveMs, lat: r.ArriveMs - r.SentMs, slot: i}
	}
	for _, i := range g.replaced {
		fresh = append(fresh, entry(i))
	}
	for i := g.merged; i < len(g.min); i++ {
		fresh = append(fresh, entry(int32(i)))
	}
	slices.SortFunc(fresh, func(a, b logEntry) int { return g.compare(&a, &b) })
	add := make([]byte, 0, len(fresh)*48)
	for k := range fresh {
		if r := &g.min[fresh[k].slot]; !r.expired() {
			n := len(add)
			add = appendDigestLine(add, &r.Arrival)
			fresh[k].n = uint16(len(add) - n)
		}
	}

	order := make([]logEntry, 0, len(g.order)-len(g.replaced)+len(fresh))
	lines := make([]byte, 0, len(g.lines)+len(add))
	run, off := 0, 0 // g.order[run:] and g.lines[off:] are not yet copied
	flush := func(end, endOff int) {
		order = append(order, g.order[run:end]...)
		lines = append(lines, g.lines[off:endOff]...)
		run, off = end, endOff
	}
	j, addOff, at := 0, 0, 0 // at: byte offset of g.order[k]'s line
	for k := range g.order {
		e := &g.order[k]
		for ; j < len(fresh) && g.compare(&fresh[j], e) < 0; j++ {
			flush(k, at)
			n := int(fresh[j].n)
			order = append(order, fresh[j])
			lines = append(lines, add[addOff:addOff+n]...)
			addOff += n
		}
		if len(g.replaced) > 0 && g.stale[e.slot/64]&(1<<(e.slot%64)) != 0 {
			flush(k, at)
			run, off = k+1, at+int(e.n) // drop the replaced slot's old entry
		}
		at += int(e.n)
	}
	flush(len(g.order), len(g.lines))
	order = append(order, fresh[j:]...)
	lines = append(lines, add[addOff:]...)

	for _, i := range g.replaced {
		g.stale[i/64] &^= 1 << (i % 64)
	}
	g.order, g.lines, g.replaced = order, lines, g.replaced[:0]
	g.merged = len(g.min)
	if words := (g.merged + 63) / 64; len(g.stale) < words {
		g.stale = append(g.stale, make([]uint64, words-len(g.stale))...)
	}
}

// Retained calls fn for every retained first arrival, in ArrivalBefore
// order, with the freshness budget it is judged against.
func (g *Gateway) Retained(fn func(a Arrival, freshMs float64)) {
	g.sync()
	for k := range g.order {
		r := &g.min[g.order[k].slot]
		fn(r.Arrival, r.freshMs)
	}
}

// Stats returns the gateway counters.
func (g *Gateway) Stats() GatewayStats {
	return GatewayStats{
		Arrivals:   g.arrivals,
		Delivered:  g.delivered,
		Duplicates: g.arrivals - int64(len(g.min)),
		Expired:    g.expired,
	}
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
	g.sync()
	var out []Delivery
	for k := range g.order {
		if e := &g.order[k]; e.n > 0 {
			r := &g.min[e.slot]
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
	g.sync()
	sum := sha256.Sum256(g.lines)
	return hex.EncodeToString(sum[:])
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
	b = appendMs(b, a.SentMs)
	b = append(b, ' ')
	b = appendMs(b, a.ArriveMs)
	return append(b, '\n')
}

// appendMs appends x to six decimals, the bytes strconv.AppendFloat(b,
// x, 'f', 6, 64) renders. strconv takes its arbitrary-precision path
// for every fixed-precision 'f'; below 2^43 in magnitude x·10⁶ rounds
// to a uint64, so it is computed here from the exact 128-bit product of
// the mantissa and 10⁶ with the same round-half-even rule. Larger,
// infinite and NaN values go to strconv.
func appendMs(b []byte, x float64) []byte {
	if !(math.Abs(x) < 1<<43) {
		return strconv.AppendFloat(b, x, 'f', 6, 64)
	}
	fb := math.Float64bits(x)
	mant, exp := fb&(1<<52-1), int(fb>>52&0x7FF)
	if exp == 0 {
		exp = 1
	} else {
		mant |= 1 << 52
	}
	shift := uint(1075 - exp) // |x| = mant / 2^shift, and shift >= 10
	hi, lo := bits.Mul64(mant, 1e6)
	var q uint64 // |x|·10⁶ rounded down
	var up bool  // ... and whether it rounds up instead
	switch {
	case shift >= 128: // the product is below 2^73, less than half a unit
	case shift > 64:
		s := shift - 64
		q = hi >> s
		rem, half := hi&(1<<s-1), uint64(1)<<(s-1)
		up = rem > half || rem == half && (lo != 0 || q&1 == 1)
	case shift == 64:
		q = hi
		up = lo > 1<<63 || lo == 1<<63 && q&1 == 1
	default:
		q = hi<<(64-shift) | lo>>shift
		rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
		up = rem > half || rem == half && q&1 == 1
	}
	if up {
		q++
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/1e6, 10)
	var frac [7]byte
	frac[0] = '.'
	for i, f := 6, q%1e6; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(b, frac[:]...)
}

// LatencyHistogram builds the end-to-end delivery latency histogram
// over LatencyBounds, observed in log order so its Sum is a pure
// function of the arrival set. The fleet rollup merges it into the
// fleet-wide registry (bounds always match).
func (g *Gateway) LatencyHistogram() *obs.Histogram {
	g.sync()
	h := obs.NewHistogram(LatencyBounds)
	for k := range g.order {
		if e := &g.order[k]; e.n > 0 {
			h.Observe(e.lat)
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
