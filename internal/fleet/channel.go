package fleet

import (
	"sort"

	"repro/internal/vm"
)

// LinkParams models one device's lossy radio link to the gateway. The
// paper's deployments report over exactly this kind of channel, and its
// two failure modes are the ones the gateway must absorb: frames vanish
// (loss) and frames arrive more than once (radio duplication, and ARQ
// retransmits triggered by lost acknowledgements).
type LinkParams struct {
	// Loss is the per-frame loss probability in [0, 1); it applies to
	// data frames and, when Retransmits > 0, to the gateway's ACKs too —
	// a lost ACK makes the device retransmit a frame the gateway already
	// has, which is how real links manufacture duplicates.
	Loss float64
	// Dup is the probability the channel itself duplicates a delivered
	// frame (multipath / repeater echo).
	Dup float64
	// DelayMinMs/DelayMaxMs bound the one-way propagation + queueing
	// delay, drawn uniformly per frame.
	DelayMinMs float64
	DelayMaxMs float64
	// Retransmits is how many extra attempts the device's link layer
	// makes per frame (0 = fire and forget).
	Retransmits int
	// BackoffMs separates retransmit attempts (default 5 ms).
	BackoffMs float64

	// GE switches per-frame loss from the uniform Loss probability to a
	// Gilbert–Elliott two-state burst model: the link sits in a Good or
	// Bad state with its own loss probability, and after every loss draw
	// the state transitions with the given probabilities. Bursty loss is
	// how real lossy-RF deployments behave — long clean stretches
	// punctuated by fade-outs where nearly everything drops — and it
	// stresses the gateway's dedup/ARQ path very differently from
	// uniform loss at the same average rate. State transitions draw from
	// the same per-device splitmix64 stream as everything else, so GE
	// fleets stay worker-count independent.
	GE bool
	// GELossGood/GELossBad are the per-frame loss probabilities in the
	// Good and Bad states (data frames and ACKs alike).
	GELossGood float64
	GELossBad  float64
	// GEGoodToBad/GEBadToGood are the per-draw state transition
	// probabilities. The chain starts in Good; its stationary bad-state
	// share is GEGoodToBad/(GEGoodToBad+GEBadToGood).
	GEGoodToBad float64
	GEBadToGood float64
}

// Arrival is one frame reaching the gateway. The two narrow fields
// come last so an Arrival packs into 56 bytes and a gateway's retained
// minimum into 64: a long-lived ticsgate holds one per (device, seq).
type Arrival struct {
	Dev      int     // source device index
	Seq      int64   // device send-sequence number (vm.SendRec.Seq)
	SentMs   float64 // true wall-clock time of the original send
	DeviceMs int64   // the device's own clock at the send
	ArriveMs float64 // true wall-clock arrival time at the gateway
	Attempt  int     // 0 = first transmission, >0 = link-layer retransmit
	Value    int32   // payload
	Echo     bool    // true for a channel-duplicated copy
}

// LinkStats counts what one device's link did to its traffic.
type LinkStats struct {
	Packets     int64 // sends offered to the link
	Frames      int64 // frames actually transmitted (incl. retransmits)
	FramesLost  int64 // data frames the channel dropped
	AcksLost    int64 // ACKs the channel dropped (each forces a retransmit)
	Echoes      int64 // channel-duplicated copies delivered
	Undelivered int64 // packets whose every attempt was lost
	BadFrames   int64 // data frames transmitted while a GE link sat in Bad state
}

func (s *LinkStats) add(o LinkStats) {
	s.Packets += o.Packets
	s.Frames += o.Frames
	s.FramesLost += o.FramesLost
	s.AcksLost += o.AcksLost
	s.Echoes += o.Echoes
	s.Undelivered += o.Undelivered
	s.BadFrames += o.BadFrames
}

// linkRNG is a private splitmix64 stream. Each device's link owns one,
// seeded from the device seed, so the channel's draws are a pure
// function of (fleet seed, device index, send order) — independent of
// worker count and host scheduling.
type linkRNG struct{ s uint64 }

func (r *linkRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *linkRNG) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// linkSalt decorrelates the link RNG stream from the power/sensor/clock
// streams that share the device seed.
const linkSalt = 0xC2B2AE3D27D4EB4F

// Transmit pushes one device's send log through its link and returns the
// frames that reach the gateway, in transmission order. Deterministic:
// the same (seed, log) always yields the same arrivals.
func Transmit(dev int, seed uint64, p LinkParams, log []vm.SendRec) ([]Arrival, LinkStats) {
	return transmit(dev, seed, p, log, nil)
}

// transmit is Transmit with an optional span collector. The tracer only
// observes — it draws nothing from the RNG — so a traced run's channel
// behaviour (and therefore the gateway digest) is byte-identical to an
// untraced one.
func transmit(dev int, seed uint64, p LinkParams, log []vm.SendRec, tel *Telemetry) ([]Arrival, LinkStats) {
	rng := linkRNG{s: seed ^ linkSalt}
	backoff := p.BackoffMs
	if backoff <= 0 {
		backoff = 5
	}
	spread := p.DelayMaxMs - p.DelayMinMs
	if spread < 0 {
		spread = 0
	}
	delay := func() float64 { return p.DelayMinMs + spread*rng.float() }

	// lose decides one loss draw. The uniform model consumes exactly one
	// RNG draw per decision — the historical stream, so existing fleet
	// digests are untouched. The Gilbert–Elliott model consumes two (the
	// loss draw in the current state, then the state transition draw),
	// which is still a pure function of (seed, draw order) and therefore
	// just as worker-count independent.
	geBad := false
	lose := func() bool {
		if !p.GE {
			return rng.float() < p.Loss
		}
		pLoss := p.GELossGood
		if geBad {
			pLoss = p.GELossBad
		}
		drop := rng.float() < pLoss
		if geBad {
			if rng.float() < p.GEBadToGood {
				geBad = false
			}
		} else if rng.float() < p.GEGoodToBad {
			geBad = true
		}
		return drop
	}

	var out []Arrival
	var st LinkStats
	for _, rec := range log {
		st.Packets++
		emit := tel.onEmit(dev, rec)
		delivered := false
		for attempt := 0; attempt <= p.Retransmits; attempt++ {
			st.Frames++
			if p.GE && geBad {
				st.BadFrames++
			}
			txMs := rec.TrueMs + float64(attempt)*backoff
			if lose() {
				st.FramesLost++
				tel.onAttempt(dev, rec.Seq, AttemptSpan{Emit: emit, Attempt: attempt, TxMs: txMs, Lost: true})
				continue // next attempt, if the link layer has one
			}
			a := Arrival{
				Dev: dev, Seq: rec.Seq, Value: rec.Value,
				SentMs: rec.TrueMs, DeviceMs: rec.EstMs,
				ArriveMs: txMs + delay(), Attempt: attempt,
			}
			out = append(out, a)
			delivered = true
			idx := tel.onAttempt(dev, rec.Seq, AttemptSpan{Emit: emit, Attempt: attempt, TxMs: txMs, ArriveMs: a.ArriveMs})
			if p.Dup > 0 && rng.float() < p.Dup {
				echo := a
				echo.ArriveMs += delay()
				echo.Echo = true
				out = append(out, echo)
				st.Echoes++
				tel.onAttempt(dev, rec.Seq, AttemptSpan{Emit: emit, Attempt: attempt, TxMs: txMs, ArriveMs: echo.ArriveMs, Echo: true})
			}
			// The gateway ACKs the frame; if the ACK is lost the device
			// cannot tell its frame arrived and retransmits it — the
			// classic duplicate-manufacturing path of ARQ links.
			if attempt < p.Retransmits && lose() {
				st.AcksLost++
				tel.markAckLost(dev, rec.Seq, idx)
				continue
			}
			break
		}
		if !delivered {
			st.Undelivered++
		}
	}
	return out, st
}

// ArrivalBefore is the gateway observation order: by arrival time,
// tie-broken by (device, sequence, attempt, echo) so the global order is
// total and therefore identical on every run. The gateway retains the
// ArrivalBefore-minimal arrival per (device, seq) and logs deliveries in
// this order, whatever order arrivals reach it in.
func ArrivalBefore(a, b Arrival) bool {
	if a.ArriveMs != b.ArriveMs {
		return a.ArriveMs < b.ArriveMs
	}
	if a.Dev != b.Dev {
		return a.Dev < b.Dev
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Attempt != b.Attempt {
		return a.Attempt < b.Attempt
	}
	return !a.Echo && b.Echo
}

// SortArrivals orders frames the way the gateway observes them (see
// ArrivalBefore).
func SortArrivals(arrivals []Arrival) {
	sort.Slice(arrivals, func(i, j int) bool { return ArrivalBefore(arrivals[i], arrivals[j]) })
}
