package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
)

func postIngest(t *testing.T, h http.Handler, req IngestRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
	return w
}

func TestServerIngestContract(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	h := NewServer(st).Handler()
	frames := []Frame{{Dev: 1, Seq: 1, ArriveMs: 5}, {Dev: 1, Seq: 2, ArriveMs: 6}}

	// First batch applies.
	w := postIngest(t, h, IngestRequest{Source: "s", Batch: 1, Frames: frames})
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	var resp IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || resp.HWM != 1 {
		t.Fatalf("resp = %+v", resp)
	}

	// Replay is 200 with applied=false — the retry contract.
	w = postIngest(t, h, IngestRequest{Source: "s", Batch: 1, Frames: frames})
	json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || resp.Applied || resp.HWM != 1 {
		t.Fatalf("replay: %d %+v", w.Code, resp)
	}

	// A gap is 409.
	if w = postIngest(t, h, IngestRequest{Source: "s", Batch: 5, Frames: frames}); w.Code != http.StatusConflict {
		t.Fatalf("gap: %d, want 409", w.Code)
	}

	// A frame the WAL cannot store faithfully is 400.
	wide := []Frame{{Dev: 1<<32 + 1, Seq: 1, ArriveMs: 5}}
	if w = postIngest(t, h, IngestRequest{Source: "s", Batch: 2, Frames: wide}); w.Code != http.StatusBadRequest {
		t.Fatalf("wide dev: %d, want 400", w.Code)
	}

	// Garbage is 400, also after a valid body, and nothing is applied.
	for _, body := range []string{"{nope", `{"source":"s","batch":2,"frames":null} x`} {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest || st.SourceHWM("s") != 1 {
			t.Fatalf("bad body %q: %d, hwm %d, want 400 and hwm 1", body, w.Code, st.SourceHWM("s"))
		}
	}
}

func TestServerDigestHealthzMetrics(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	h := NewServer(st).Handler()
	postIngest(t, h, IngestRequest{Source: "s", Batch: 1, Frames: []Frame{
		{Dev: 1, Seq: 1, ArriveMs: 5},
		{Dev: 1, Seq: 1, ArriveMs: 9, Attempt: 1}, // duplicate
	}})

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/digest", nil))
	var sum fleet.RemoteSummary
	if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
		t.Fatalf("digest decode: %v (%s)", err, w.Body)
	}
	if sum.Unique != 1 || sum.Stats.Arrivals != 2 || sum.Stats.Duplicates != 1 || sum.Digest != st.Digest() {
		t.Fatalf("summary = %+v", sum)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, name := range []string{
		"gate_ingest_batches", "gate_ingest_frames", "gate_wal_bytes",
		"gate_wal_fsyncs", "gate_unique_packets", "gate_duplicates", "gate_arrivals",
	} {
		if !strings.Contains(w.Body.String(), name) {
			t.Fatalf("/metrics missing %s:\n%s", name, w.Body)
		}
	}
}

// TestClientRetriesTransientFailures pins the client's backoff loop:
// refused-connection-style 503s and torn responses are retried, 4xx is
// surfaced immediately.
func TestClientRetriesTransientFailures(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	real := NewServer(st).Handler()
	var fails int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, 0)
	fails = 2
	if err := c.IngestWave([]fleet.Arrival{{Dev: 1, Seq: 1, ArriveMs: 3}}); err != nil {
		t.Fatalf("ingest through 503s: %v", err)
	}
	if st.Unique() != 1 {
		t.Fatalf("unique = %d", st.Unique())
	}
	fails = 1
	sum, err := c.Finalize()
	if err != nil {
		t.Fatalf("finalize through 503: %v", err)
	}
	if sum.Digest != st.Digest() {
		t.Fatal("finalize digest mismatch")
	}

	// A client that skips ahead gets the 409 back as a hard error.
	bad := NewClient(ts.URL, 0)
	bad.batch = 7 // pretend 7 batches were sent on a different connection
	if err := bad.IngestWave(nil); err == nil {
		t.Fatal("batch gap did not surface")
	}
}

// TestMetricsScrapeDuringIngest scrapes /metrics while other goroutines
// ingest. The registry is not itself concurrency-safe, so the scrape must
// render it under the server's lock; run with -race to check that it does.
func TestMetricsScrapeDuringIngest(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	h := NewServer(st).Handler()
	const sources, batches = 2, 8
	done := make(chan struct{})
	for s := 0; s < sources; s++ {
		go func() {
			defer func() { done <- struct{}{} }()
			src := fmt.Sprintf("s%d", s)
			for b := uint64(1); b <= batches; b++ {
				frames := []Frame{{Dev: s, Seq: int64(b), ArriveMs: float64(b)}}
				if w := postIngest(t, h, IngestRequest{Source: src, Batch: b, Frames: frames}); w.Code != http.StatusOK {
					t.Errorf("ingest %s/%d: %d %s", src, b, w.Code, w.Body)
				}
				// A replay and a bad body touch the other first-use counters.
				postIngest(t, h, IngestRequest{Source: src, Batch: b, Frames: frames})
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader("{")))
			}
		}()
	}
	for running := sources; running > 0; {
		select {
		case <-done:
			running--
		default:
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := fmt.Sprintf("gate_ingest_frames %d\n", sources*batches); !strings.Contains(w.Body.String(), want) {
		t.Fatalf("/metrics after the ingests lacks %q:\n%s", want, w.Body)
	}
}

// oversizeWave returns arrivals whose single-batch ingest body exceeds
// MaxIngestBody, and that body's size.
func oversizeWave(t *testing.T, fresh float64) ([]fleet.Arrival, int) {
	t.Helper()
	arrivals := synthArrivals(5, 40000)
	frames := make([]Frame, len(arrivals))
	for i, a := range arrivals {
		frames[i] = FrameFromArrival(a, fresh)
	}
	body, err := json.Marshal(IngestRequest{Source: "s", Batch: 1, Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 2*MaxIngestBody {
		t.Fatalf("wave body %d bytes does not need splitting twice", len(body))
	}
	return arrivals, len(body)
}

// TestClientSplitsOversizeWave: a wave whose body would pass
// MaxIngestBody lands as several consecutive batches, each under the
// cap, and the store ends with the in-process gateway's accounting; the
// next wave takes the next batch number.
func TestClientSplitsOversizeWave(t *testing.T) {
	const fresh = 100.0
	arrivals, size := oversizeWave(t, fresh)
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	ts := httptest.NewServer(NewServer(st).Handler())
	defer ts.Close()

	c := NewClient(ts.URL, fresh)
	if err := c.IngestWave(arrivals); err != nil {
		t.Fatal(err)
	}
	parts := st.SourceHWM(c.Source)
	if parts < 3 || int(parts) > 2*size/MaxIngestBody+1 {
		t.Fatalf("a %d-byte wave landed as %d batches", size, parts)
	}
	last := fleet.Arrival{Dev: 99, Seq: 1, SentMs: 1, ArriveMs: 2}
	if err := c.IngestWave([]fleet.Arrival{last}); err != nil {
		t.Fatal(err)
	}
	if got := st.SourceHWM(c.Source); got != parts+1 {
		t.Fatalf("next wave took batch %d, want %d", got, parts+1)
	}
	assertMatchesRef(t, st, refGateway(append(arrivals, last), fresh))
}

// TestOversizeIngestRefused: a raw POST over MaxIngestBody is answered
// 413 and leaves no trace in the store, also when the bytes past the
// cap are whitespace after a valid body.
func TestOversizeIngestRefused(t *testing.T) {
	arrivals, _ := oversizeWave(t, 100)
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	h := NewServer(st).Handler()
	frames := make([]Frame, len(arrivals))
	for i, a := range arrivals {
		frames[i] = FrameFromArrival(a, 100)
	}
	empty, wal := st.Digest(), st.WALBytes()
	if w := postIngest(t, h, IngestRequest{Source: "s", Batch: 1, Frames: frames}); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ingest: %d %s, want 413", w.Code, w.Body)
	}
	padded := append([]byte(`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"arrive_ms":5}]}`), bytes.Repeat([]byte(" "), MaxIngestBody)...)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(padded)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte padded ingest: %d %s, want 413", len(padded), w.Code, w.Body)
	}
	if st.Digest() != empty || st.WALBytes() != wal || st.Sources() != 0 || st.Stats() != (fleet.GatewayStats{}) {
		t.Fatalf("refused body changed the store: %d sources, %d WAL bytes, %+v", st.Sources(), st.WALBytes(), st.Stats())
	}
}
