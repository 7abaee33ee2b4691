package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// lossyCfg is a fleet whose channel exercises every span shape: losses,
// echoes, ARQ retransmits with lost ACKs, raw-radio replays (Virtualize
// off), and a freshness deadline tight enough to expire some packets.
func lossyCfg(workers int) Config {
	return Config{
		Devices: 6,
		Workers: workers,
		Source:  sendySrc,
		Runtime: "tics",
		Power:   "fail:7300",
		Seed:    11,
		TimerMs: 5,
		Link: LinkParams{
			Loss: 0.25, Dup: 0.1, DelayMinMs: 2, DelayMaxMs: 30,
			Retransmits: 2, BackoffMs: 5,
		},
		FreshnessMs: 25,
		Trace:       true,
	}
}

// TestTelemetrySpanChainComplete is the tentpole's acceptance test: a
// lossy-channel fleet run must reconstruct the full chain — emit → N
// transmit attempts → gateway verdict — for every message, and the
// per-outcome counts must reconcile exactly with the gateway and link
// accounting.
func TestTelemetrySpanChainComplete(t *testing.T) {
	rep, err := Run(lossyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	tel := rep.Telemetry
	if tel == nil {
		t.Fatal("Trace config produced no telemetry")
	}

	// Every send in every device's log has a trace with at least one
	// emit and one attempt. Send logs are consumed by the streaming
	// channel pass, but committed seqs are contiguous from 0, so the
	// device's packets carried exactly seqs [0, UniqueSends).
	for dev, out := range rep.Outcomes {
		if out.Sends > 0 && out.UniqueSends == 0 {
			t.Fatalf("device %d: %d sends but no unique seqs", dev, out.Sends)
		}
		for seq := int64(0); seq < int64(out.UniqueSends); seq++ {
			tr := tel.Trace(dev, seq)
			if tr == nil {
				t.Fatalf("device %d seq %d: no trace", dev, seq)
			}
			if len(tr.Emits) == 0 || len(tr.Attempts) == 0 {
				t.Fatalf("device %d seq %d: incomplete chain: %+v", dev, seq, tr)
			}
		}
	}

	var delivered, expired, lost, dups int64
	var attempts, attemptsLost, echoes, acksLost int64
	for _, tr := range tel.Traces() {
		attempts += int64(len(tr.Attempts))
		for _, a := range tr.Attempts {
			if a.Lost {
				attemptsLost++
				if a.ArriveMs != 0 {
					t.Fatalf("lost attempt has an arrival: %+v", a)
				}
			}
			if a.Echo {
				echoes++
			}
			if a.AckLost {
				acksLost++
			}
			if a.Emit < 0 || a.Emit >= len(tr.Emits) {
				t.Fatalf("attempt points at emit %d of %d", a.Emit, len(tr.Emits))
			}
		}
		switch tr.Verdict.Outcome {
		case OutcomeDelivered:
			delivered++
			if tr.Verdict.LatencyMs <= 0 || tr.Verdict.FreshnessLeftMs < 0 {
				t.Fatalf("delivered verdict inconsistent: %+v", tr.Verdict)
			}
		case OutcomeExpired:
			expired++
			if tr.Verdict.FreshnessLeftMs >= 0 {
				t.Fatalf("expired verdict has budget left: %+v", tr.Verdict)
			}
		case OutcomeLost:
			lost++
			for _, a := range tr.Attempts {
				if !a.Lost {
					t.Fatalf("lost message has a delivered attempt: %+v", tr)
				}
			}
		default:
			t.Fatalf("unfinalized verdict: %+v", tr.Verdict)
		}
		dups += int64(tr.Verdict.Duplicates)
	}

	if delivered != rep.Gateway.Delivered || expired != rep.Gateway.Expired ||
		lost != rep.Lost || dups != rep.Gateway.Duplicates {
		t.Fatalf("span accounting diverges from gateway: got %d/%d/%d/%d, want %d/%d/%d/%d",
			delivered, expired, lost, dups,
			rep.Gateway.Delivered, rep.Gateway.Expired, rep.Lost, rep.Gateway.Duplicates)
	}
	// Every frame the device transmitted and every channel echo got a
	// span; echoes are deliveries the device never sent, so LinkStats
	// counts them separately.
	if attempts != rep.Link.Frames+rep.Link.Echoes {
		t.Fatalf("attempt spans %d != frames %d + echoes %d", attempts, rep.Link.Frames, rep.Link.Echoes)
	}
	if attemptsLost != rep.Link.FramesLost || echoes != rep.Link.Echoes || acksLost != rep.Link.AcksLost {
		t.Fatalf("attempt detail diverges from link stats: %d/%d/%d vs %+v",
			attemptsLost, echoes, acksLost, rep.Link)
	}
	if expired == 0 || lost == 0 || dups == 0 {
		t.Fatalf("scenario lost its teeth: expired=%d lost=%d dups=%d", expired, lost, dups)
	}
}

// TestTelemetryDeterministicAcrossWorkers extends the fleet's
// determinism contract to the span layer: the rendered trace stream is
// byte-identical across worker counts, and turning tracing on does not
// perturb the channel (same gateway digest with and without it).
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Run(lossyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(lossyCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	if err := serial.Telemetry.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Telemetry.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("no spans rendered")
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatal("span streams diverge across worker counts")
	}

	untraced := lossyCfg(2)
	untraced.Trace = false
	plain, err := Run(untraced)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest != serial.Digest {
		t.Fatal("tracing perturbed the channel: gateway digests diverge")
	}
	if plain.Telemetry != nil {
		t.Fatal("untraced run still built telemetry")
	}
}

// TestTelemetryCommitLatency: virtualized sends are held until the next
// commit point, so their emit spans carry a positive commit latency and
// a sensor timestamp earlier than the transmission.
func TestTelemetryCommitLatency(t *testing.T) {
	cfg := sendyCfg(true)
	cfg.Trace = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var held int
	for _, tr := range rep.Telemetry.Traces() {
		for _, em := range tr.Emits {
			if em.CommitLatencyMs < 0 {
				t.Fatalf("negative commit latency: %+v", em)
			}
			if em.CommitLatencyMs > 0 {
				held++
				if em.EmitTrueMs >= em.TrueMs {
					t.Fatalf("held packet's emit is not before its commit: %+v", em)
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no virtualized send was held to a commit point; commit latency untested")
	}

	// Raw-radio sends transmit at emission: latency is identically zero.
	cfg = sendyCfg(false)
	cfg.Trace = true
	rep, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Telemetry.Traces() {
		for _, em := range tr.Emits {
			if em.CommitLatencyMs != 0 {
				t.Fatalf("raw-radio send has commit latency: %+v", em)
			}
		}
	}
}

// TestTelemetryChromeExport: the Perfetto export is valid trace_event
// JSON with one process per sending device and a verdict per message.
func TestTelemetryChromeExport(t *testing.T) {
	rep, err := Run(lossyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Telemetry.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Cat   string `json:"cat"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	procs := map[int]bool{}
	var verdicts int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.PID] = true
		}
		if ev.Cat == "gateway" {
			verdicts++
		}
	}
	if len(procs) != rep.Devices {
		t.Fatalf("export names %d device processes, fleet has %d", len(procs), rep.Devices)
	}
	if verdicts != len(rep.Telemetry.Traces()) {
		t.Fatalf("%d verdict instants for %d traces", verdicts, len(rep.Telemetry.Traces()))
	}
}

// TestTelemetryQueries covers the lookup API edges the serving layer
// leans on: out-of-range devices, unknown seqs, and nil receivers.
func TestTelemetryQueries(t *testing.T) {
	rep, err := Run(lossyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	tel := rep.Telemetry
	if tel.Trace(-1, 0) != nil || tel.Trace(tel.Devices(), 0) != nil || tel.Trace(0, 1<<40) != nil {
		t.Fatal("bogus lookups returned traces")
	}
	dts := tel.DeviceTraces(0)
	for i := 1; i < len(dts); i++ {
		if dts[i-1].Seq >= dts[i].Seq {
			t.Fatal("device traces not in ascending seq order")
		}
	}
	var nilTel *Telemetry
	if nilTel.Trace(0, 0) != nil || nilTel.Traces() != nil || nilTel.Devices() != 0 {
		t.Fatal("nil telemetry not inert")
	}
	nilTel.finalize(nil) // must not panic
}
