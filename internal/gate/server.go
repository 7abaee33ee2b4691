package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"repro/internal/obs"
)

// Server fronts a Store with the ticsgate HTTP surface:
//
//	POST /v1/ingest   one batch of frames; 200 with {"applied":...}
//	                  after the WAL fsync, 409 on a batch-sequence gap,
//	                  413 on a body over MaxIngestBody
//	GET  /v1/digest   durable accounting: digest, stats, quantiles
//	GET  /healthz     liveness plus recovery info
//	GET  /metrics     Prometheus text format (obs registry + gauges)
//
// The store is single-writer; one mutex serializes every handler. That
// is deliberate: ingest durability is fsync-bound, not lock-bound, and
// a total order over batch applications keeps the exactly-once
// reasoning one-dimensional. A digest read holds the mutex too, but the
// gateway core keeps its ordered, rendered delivery log between reads,
// so a read costs what arrived since the previous one, not the whole
// state.
type Server struct {
	// CrashAfter, when positive, SIGKILLs the process immediately after
	// the Nth *applied* batch is made durable but before its HTTP
	// response is written — the nastiest crash window there is (client
	// must retry; gateway must dedup the retry). Fault injection for
	// the CI gate-smoke and the torture tests; never set in production.
	CrashAfter int64

	mu sync.Mutex
	st *Store

	reg     *obs.Registry
	applied int64
}

// MaxIngestBody caps a POST /v1/ingest body by its size in bytes: a
// larger one, whitespace included, is refused with 413 before anything
// is decoded or applied, so one request cannot make the server buffer
// an unbounded frame list. It is about 25,000 frames, far
// above a 512-frame wave's 80 KB; Client.IngestWave splits a wave that
// would exceed it into consecutive batches.
const MaxIngestBody = 4 << 20

// NewServer wraps an opened store.
func NewServer(st *Store) *Server {
	reg := obs.NewRegistry()
	return &Server{st: st, reg: reg}
}

// IngestRequest is the POST /v1/ingest body.
type IngestRequest struct {
	// Source names the producer; Batch is its 1-based, strictly
	// sequential batch number. Together they make retries idempotent.
	Source string  `json:"source"`
	Batch  uint64  `json:"batch"`
	Frames []Frame `json:"frames"`
}

// IngestResponse acknowledges a durable batch.
type IngestResponse struct {
	Applied bool   `json:"applied"` // false = idempotent replay of an already-applied batch
	HWM     uint64 `json:"hwm"`     // the source's applied-batch high-water mark
}

// Handler returns the ticsgate mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/digest", s.handleDigest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleIngest reads the whole body, at most MaxIngestBody bytes, then
// decodes it with DecodeIngest, so a body is refused by its size and by
// everything in it, trailing bytes included, before the lock is taken.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := readIngestBody(w, r)
	var req IngestRequest
	if err == nil {
		req, err = DecodeIngest(body)
	}
	if err != nil {
		s.countError()
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad ingest body: "+err.Error(), code)
		return
	}
	s.mu.Lock()
	applied, err := s.st.Ingest(req.Source, req.Batch, req.Frames)
	var hwm uint64
	if err == nil {
		hwm = s.st.SourceHWM(req.Source)
		s.reg.Inc("gate_ingest_batches")
		if applied {
			s.applied++
			s.reg.Add("gate_ingest_frames", int64(len(req.Frames)))
		} else {
			s.reg.Inc("gate_ingest_replayed_batches")
		}
	}
	crash := err == nil && applied && s.CrashAfter > 0 && s.applied >= s.CrashAfter
	s.mu.Unlock()

	if err != nil {
		s.countError()
		code := http.StatusBadRequest
		if errors.Is(err, ErrBatchGap) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	if crash {
		// The batch is fsynced and applied; the ack is about to be lost.
		// A real power failure does exactly this.
		fmt.Fprintln(os.Stderr, "ticsgate: -crash-after fault injection: dying after applied batch", s.applied)
		proc, _ := os.FindProcess(os.Getpid())
		proc.Kill() // SIGKILL: no deferred cleanup, no graceful close
		select {}   // unreachable; Kill is asynchronous in theory
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IngestResponse{Applied: applied, HWM: hwm})
}

// readIngestBody reads r's whole body through http.MaxBytesReader,
// into one buffer sized by the Content-Length when that is in bounds.
func readIngestBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= MaxIngestBody {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxIngestBody))
	return buf.Bytes(), err
}

// countError bumps the error counter under the store mutex — the obs
// registry is not itself concurrency-safe, so every registry touch in
// this file happens while holding s.mu.
func (s *Server) countError() {
	s.mu.Lock()
	s.reg.Inc("gate_ingest_errors")
	s.mu.Unlock()
}

func (s *Server) handleDigest(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sum := s.st.Summary()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sum)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rec := s.st.Recovery()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"status": "ok", "recovery": rec})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.st.Stats()
	s.reg.SetGauge("gate_wal_bytes", float64(s.st.WALBytes()))
	s.reg.SetGauge("gate_wal_fsyncs", float64(s.st.Fsyncs()))
	s.reg.SetGauge("gate_snapshots", float64(s.st.Snapshots()))
	s.reg.SetGauge("gate_sources", float64(s.st.Sources()))
	s.reg.SetGauge("gate_unique_packets", float64(s.st.Unique()))
	s.reg.SetGauge("gate_delivered", float64(st.Delivered))
	s.reg.SetGauge("gate_duplicates", float64(st.Duplicates))
	s.reg.SetGauge("gate_expired", float64(st.Expired))
	s.reg.SetGauge("gate_arrivals", float64(st.Arrivals))
	s.reg.SetGauge("gate_recovery_ms", s.st.Recovery().DurationMs)
	// Render under the lock (an ingest may be adding a counter) and write
	// after it, so a slow scraper does not hold up ingest.
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}
