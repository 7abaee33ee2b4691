package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestExportersAfterWrapEmitRetainedSuffixInOrder is the ring wrap-around
// regression test for the exporters: after emitting more events than the
// ring holds, WriteJSONL and ChromeTraceEvents must render exactly the
// retained suffix, oldest first.
func TestExportersAfterWrapEmitRetainedSuffixInOrder(t *testing.T) {
	r := NewRecorder(Options{RingCap: 4})
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 0, TrueMs: 0})
	for i := 1; i <= 9; i++ {
		r.Emit(Event{Kind: EvSend, Cycles: int64(i), TrueMs: float64(i), Arg0: int64(100 + i)})
	}
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 10, TrueMs: 10})
	if r.Dropped() != 7 {
		t.Fatalf("dropped %d, want 7", r.Dropped())
	}

	// JSONL: exactly the 4 retained events (sends 7..9, then the commit),
	// and parsing the output back yields them bit-for-bit.
	var b bytes.Buffer
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 4:\n%s", len(lines), b.String())
	}
	parsed, err := ReadJSONL(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	retained := r.Events()
	if len(parsed) != len(retained) {
		t.Fatalf("round trip lost events: %d vs %d", len(parsed), len(retained))
	}
	for i := range parsed {
		if parsed[i] != retained[i] {
			t.Fatalf("event %d round trip mismatch: %+v vs %+v", i, parsed[i], retained[i])
		}
	}
	for i, ev := range retained[:3] {
		if ev.Kind != EvSend || ev.Cycles != int64(7+i) {
			t.Fatalf("retained[%d] = %+v, want send @%d (oldest-first suffix)", i, ev, 7+i)
		}
	}

	// Chrome trace: the commit's begin was overwritten, so it must degrade
	// to an instant event, and the sends appear in timestamp order.
	tes := r.ChromeTraceEvents()
	var sendTs []float64
	for _, te := range tes {
		if te.Name == "checkpoint" && te.Phase != "i" {
			t.Fatalf("checkpoint with dropped begin must be an instant, got phase %q", te.Phase)
		}
		if te.Name == "send" {
			sendTs = append(sendTs, te.TsUs)
		}
	}
	if len(sendTs) != 3 {
		t.Fatalf("chrome trace has %d sends, want 3", len(sendTs))
	}
	for i := 1; i < len(sendTs); i++ {
		if sendTs[i] < sendTs[i-1] {
			t.Fatalf("sends out of order: %v", sendTs)
		}
	}
}

type captureSink struct {
	seqs []int64
	evs  []Event
}

func (c *captureSink) OnEvent(seq int64, ev Event) {
	c.seqs = append(c.seqs, seq)
	c.evs = append(c.evs, ev)
}

// TestSinkSeesFullEnrichedStream: sinks observe every event (past ring
// capacity) with dense ordinals, and see the recorder's enrichment
// (commit latency in Arg1).
func TestSinkSeesFullEnrichedStream(t *testing.T) {
	r := NewRecorder(Options{RingCap: 2})
	sink := &captureSink{}
	r.AddSink(sink)
	r.Emit(Event{Kind: EvCheckpointBegin, Cycles: 100})
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: EvSend, Cycles: int64(200 + i)})
	}
	r.Emit(Event{Kind: EvCheckpointCommit, Cycles: 340})
	if len(sink.evs) != 7 {
		t.Fatalf("sink saw %d events, want all 7", len(sink.evs))
	}
	for i, s := range sink.seqs {
		if s != int64(i) {
			t.Fatalf("seq[%d] = %d, want dense ordinals", i, s)
		}
	}
	if last := sink.evs[6]; last.Kind != EvCheckpointCommit || last.Arg1 != 240 {
		t.Fatalf("sink got un-enriched commit: %+v (want latency 240)", last)
	}
	if r.Seq() != 7 {
		t.Fatalf("Seq() = %d, want 7", r.Seq())
	}
}
