package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Telemetry is the fleet's end-to-end message tracer. Every send gets a
// trace context keyed by (device, committed send sequence) and a span per
// hop: the VM emit (with commit latency and the payload's sensor
// timestamp), each channel transmission attempt (loss, duplication,
// delay, ARQ retransmit — observed from the channel's deterministic RNG
// draws, never perturbing them), and the gateway verdict (delivered /
// expired / lost, with end-to-end latency and the freshness budget left).
//
// Emits and attempts are collected in the fleet's single-threaded
// channel pass, in device-index order; verdicts are derived from the
// gateway's retained minima when the run finishes. Traces therefore
// inherit the fleet's worker-count independence: the rendered trace of
// any message is byte-identical whether the fleet ran on 1 worker or 16.
type Telemetry struct {
	freshnessMs float64
	byDev       []map[int64]*MessageTrace
}

// EmitSpan is the device-side hop: one radio transmission of the packet.
// Raw radios can emit the same (device, seq) more than once — a rollback
// replays the send — so a trace holds a list of emits, each of which
// fans out into link-layer attempts.
type EmitSpan struct {
	TrueMs          float64 `json:"true_ms"`           // transmission time (commit time when virtualized)
	DeviceMs        int64   `json:"device_ms"`         // device clock at transmission
	EmitTrueMs      float64 `json:"emit_true_ms"`      // Send-instruction execution (payload creation)
	SensorMs        int64   `json:"sensor_ms"`         // device clock when the payload was produced
	CommitLatencyMs float64 `json:"commit_latency_ms"` // virtualized hold time (0 for raw radio)
}

// AttemptSpan is one link-layer transmission attempt of one emit.
type AttemptSpan struct {
	Emit     int     `json:"emit"`                // index into MessageTrace.Emits
	Attempt  int     `json:"attempt"`             // 0 = first transmission, >0 = ARQ retransmit
	TxMs     float64 `json:"tx_ms"`               // when the frame left the device
	Lost     bool    `json:"lost,omitempty"`      // the channel dropped the frame
	ArriveMs float64 `json:"arrive_ms,omitempty"` // gateway arrival (delivered frames)
	Echo     bool    `json:"echo,omitempty"`      // channel-duplicated copy
	AckLost  bool    `json:"ack_lost,omitempty"`  // delivered, but the ACK vanished → retransmit follows
}

// VerdictSpan is the gateway-side conclusion of the message's journey.
type VerdictSpan struct {
	Outcome string `json:"outcome"` // "delivered", "expired", or "lost"
	// ArriveMs/LatencyMs describe the first arrival (absent for lost).
	ArriveMs  float64 `json:"arrive_ms,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// FreshnessLeftMs is the budget remaining when the packet landed
	// (negative for expired packets); only set when the gateway has a
	// freshness deadline.
	FreshnessLeftMs float64 `json:"freshness_left_ms,omitempty"`
	// Duplicates counts the extra arrivals of this (device, seq) the
	// gateway dropped — replays, retransmits, and echoes combined.
	Duplicates int `json:"duplicates,omitempty"`
}

// Outcome values of VerdictSpan.
const (
	OutcomeDelivered = "delivered"
	OutcomeExpired   = "expired"
	OutcomeLost      = "lost"
	// OutcomeRemote marks a message whose frames reached a remote
	// gateway (Config.Remote): dedup and freshness were adjudicated in
	// the service, so the fleet-side trace ends at the channel. Messages
	// whose every attempt died in the channel are still OutcomeLost —
	// that much the fleet knows without the gateway.
	OutcomeRemote = "remote"
)

// MessageTrace is the full span chain of one logical message.
type MessageTrace struct {
	Dev      int           `json:"dev"`
	Seq      int64         `json:"seq"`
	Value    int32         `json:"value"`
	Emits    []EmitSpan    `json:"emits"`
	Attempts []AttemptSpan `json:"attempts"`
	Verdict  VerdictSpan   `json:"verdict"`
}

// NewTelemetry builds a tracer for an n-device fleet with the given
// gateway freshness deadline (0 = none).
func NewTelemetry(n int, freshnessMs float64) *Telemetry {
	return &Telemetry{freshnessMs: freshnessMs, byDev: make([]map[int64]*MessageTrace, n)}
}

// trace returns (allocating if needed) the trace for (dev, seq).
func (t *Telemetry) trace(dev int, seq int64) *MessageTrace {
	m := t.byDev[dev]
	if m == nil {
		m = make(map[int64]*MessageTrace)
		t.byDev[dev] = m
	}
	tr := m[seq]
	if tr == nil {
		tr = &MessageTrace{Dev: dev, Seq: seq}
		m[seq] = tr
	}
	return tr
}

// onEmit opens (or extends, for raw-radio replays of the same committed
// seq) the trace for one SendRec and returns the emit index attempts
// attach to. Nil-safe: an untraced fleet pays one nil check per packet.
func (t *Telemetry) onEmit(dev int, rec vm.SendRec) int {
	if t == nil {
		return 0
	}
	tr := t.trace(dev, rec.Seq)
	tr.Value = rec.Value
	tr.Emits = append(tr.Emits, EmitSpan{
		TrueMs:          rec.TrueMs,
		DeviceMs:        rec.EstMs,
		EmitTrueMs:      rec.EmitTrueMs,
		SensorMs:        rec.EmitEstMs,
		CommitLatencyMs: rec.CommitLatencyMs(),
	})
	return len(tr.Emits) - 1
}

// onAttempt appends one link-layer attempt span and returns its index.
func (t *Telemetry) onAttempt(dev int, seq int64, a AttemptSpan) int {
	if t == nil {
		return 0
	}
	tr := t.trace(dev, seq)
	tr.Attempts = append(tr.Attempts, a)
	return len(tr.Attempts) - 1
}

// markAckLost flags a delivered attempt whose ACK the channel dropped.
func (t *Telemetry) markAckLost(dev int, seq int64, idx int) {
	if t == nil {
		return
	}
	t.trace(dev, seq).Attempts[idx].AckLost = true
}

// finalize closes every chain. With the in-process gateway g, each
// retained minimum fixes its message's outcome (delivered or expired),
// latency and remaining freshness budget, and every other arrival of
// the message — each non-lost attempt span is exactly one arrival — was
// a dropped duplicate. With a remote gateway (g == nil) dedup and
// freshness were adjudicated in the service, so a message that reached
// the wire ends as OutcomeRemote. Either way, a message none of whose
// attempts arrived is OutcomeLost.
func (t *Telemetry) finalize(g *Gateway) {
	if t == nil {
		return
	}
	if g != nil {
		for _, r := range g.min {
			lat := r.ArriveMs - r.SentMs
			v := VerdictSpan{Outcome: OutcomeDelivered, ArriveMs: r.ArriveMs, LatencyMs: lat}
			if r.freshMs > 0 {
				v.FreshnessLeftMs = r.freshMs - lat
			}
			if r.expired() {
				v.Outcome = OutcomeExpired
			}
			t.trace(r.Dev, r.Seq).Verdict = v
		}
	}
	for _, m := range t.byDev {
		for _, tr := range m {
			arrived := 0
			for _, at := range tr.Attempts {
				if !at.Lost {
					arrived++
				}
			}
			switch {
			case arrived == 0:
				tr.Verdict.Outcome = OutcomeLost
			case g == nil:
				tr.Verdict.Outcome = OutcomeRemote
			default:
				tr.Verdict.Duplicates = arrived - 1
			}
		}
	}
}

// Trace returns the span chain for (dev, seq), or nil if that message
// was never sent (or the fleet ran without tracing).
func (t *Telemetry) Trace(dev int, seq int64) *MessageTrace {
	if t == nil || dev < 0 || dev >= len(t.byDev) {
		return nil
	}
	return t.byDev[dev][seq]
}

// Devices returns the fleet size the tracer was built for.
func (t *Telemetry) Devices() int {
	if t == nil {
		return 0
	}
	return len(t.byDev)
}

// DeviceTraces returns one device's traces in ascending seq order.
func (t *Telemetry) DeviceTraces(dev int) []*MessageTrace {
	if t == nil || dev < 0 || dev >= len(t.byDev) {
		return nil
	}
	m := t.byDev[dev]
	seqs := make([]int64, 0, len(m))
	for s := range m {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]*MessageTrace, len(seqs))
	for i, s := range seqs {
		out[i] = m[s]
	}
	return out
}

// Traces returns every trace, ordered by (device, seq) — the canonical
// deterministic enumeration the exporters and tests rely on.
func (t *Telemetry) Traces() []*MessageTrace {
	if t == nil {
		return nil
	}
	var out []*MessageTrace
	for dev := range t.byDev {
		out = append(out, t.DeviceTraces(dev)...)
	}
	return out
}

// WriteJSON renders every trace as one JSON object per line in (device,
// seq) order — greppable, diffable, and byte-stable across worker counts.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	for _, tr := range t.Traces() {
		b, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ChromeTraceEvents renders the message spans as Perfetto tracks: one
// process per device, whose track carries an X-slice per transmission
// attempt (tx → arrival), instants for lost frames and verdicts, and the
// emit→commit hold of virtualized sends as a leading slice. Opens
// directly in ui.perfetto.dev next to a device's own machine trace.
func (t *Telemetry) ChromeTraceEvents() []obs.TraceEvent {
	var evs []obs.TraceEvent
	if t == nil {
		return evs
	}
	for dev := range t.byDev {
		traces := t.DeviceTraces(dev)
		if len(traces) == 0 {
			continue
		}
		pid := dev + 1 // pid 0 renders oddly in Perfetto
		evs = append(evs, obs.TraceEvent{Name: "process_name", Phase: "M", PID: pid, TID: 1,
			Cat: "__metadata", Args: map[string]any{"name": fmt.Sprintf("dev%d", dev)}})
		for _, tr := range traces {
			for ei, em := range tr.Emits {
				if em.CommitLatencyMs > 0 {
					evs = append(evs, obs.TraceEvent{
						Name: fmt.Sprintf("hold seq=%d", tr.Seq), Cat: "commit", Phase: "X",
						TsUs: em.EmitTrueMs * 1000, DurUs: em.CommitLatencyMs * 1000, PID: pid, TID: 1,
						Args: map[string]any{"seq": tr.Seq, "emit": ei, "sensor_ms": em.SensorMs}})
				} else {
					evs = append(evs, obs.TraceEvent{
						Name: fmt.Sprintf("emit seq=%d", tr.Seq), Cat: "emit", Phase: "i",
						TsUs: em.TrueMs * 1000, PID: pid, TID: 1, Scope: "t",
						Args: map[string]any{"seq": tr.Seq, "emit": ei, "sensor_ms": em.SensorMs}})
				}
			}
			for _, at := range tr.Attempts {
				name := fmt.Sprintf("seq=%d a%d", tr.Seq, at.Attempt)
				args := map[string]any{"seq": tr.Seq, "emit": at.Emit, "attempt": at.Attempt,
					"echo": at.Echo, "ack_lost": at.AckLost}
				if at.Lost {
					evs = append(evs, obs.TraceEvent{Name: name + " lost", Cat: "channel", Phase: "i",
						TsUs: at.TxMs * 1000, PID: pid, TID: 1, Scope: "t", Args: args})
					continue
				}
				evs = append(evs, obs.TraceEvent{Name: name, Cat: "channel", Phase: "X",
					TsUs: at.TxMs * 1000, DurUs: (at.ArriveMs - at.TxMs) * 1000, PID: pid, TID: 1, Args: args})
			}
			v := tr.Verdict
			vArgs := map[string]any{"seq": tr.Seq, "outcome": v.Outcome,
				"latency_ms": v.LatencyMs, "duplicates": v.Duplicates}
			if t.freshnessMs > 0 {
				vArgs["freshness_left_ms"] = v.FreshnessLeftMs
			}
			ts := v.ArriveMs
			if v.Outcome == OutcomeLost && len(tr.Attempts) > 0 {
				ts = tr.Attempts[len(tr.Attempts)-1].TxMs
			}
			evs = append(evs, obs.TraceEvent{Name: "verdict " + v.Outcome, Cat: "gateway", Phase: "i",
				TsUs: ts * 1000, PID: pid, TID: 1, Scope: "t", Args: vArgs})
		}
	}
	return evs
}

// WriteChromeTrace exports the message spans as Chrome/Perfetto JSON via
// the shared obs trace_event serializer.
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	return obs.WriteTraceEvents(w, t.ChromeTraceEvents())
}
