package gate

import (
	"bytes"
	"encoding/json"
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

	// Garbage is 400.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader("{nope")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", w.Code)
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
