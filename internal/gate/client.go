package gate

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
)

// Client streams a fleet's channel arrivals to a ticsgate service and
// implements fleet.RemoteGateway. Exactly-once is split across the two
// ends: the client numbers batches 1, 2, 3, … and retries transient
// failures (connection refused while the gateway restarts, a 5xx, a
// response lost to a mid-ingest kill) with exponential backoff; the
// gateway's WAL-backed high-water mark makes every retry idempotent. A
// batch is therefore applied exactly once no matter how many times the
// wire delivered it.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:9190".
	Base string
	// Source identifies this producer for batch dedup. NewClient draws
	// a random one; a deliberate reuse would interleave two producers'
	// batch numbering and trip ErrBatchGap by design.
	Source string
	// FreshMs is the freshness budget stamped on every frame — the
	// fleet's Config.FreshnessMs, enforced gateway-side.
	FreshMs float64
	// RetryBudget bounds how long one request keeps retrying transient
	// failures (0 = DefaultRetryBudget). It must comfortably cover a
	// gateway kill + restart.
	RetryBudget time.Duration
	// HTTP is the transport (nil = a client with DefaultRequestTimeout).
	HTTP *http.Client

	batch uint64
}

// DefaultRetryBudget is how long a request retries before giving up.
const DefaultRetryBudget = 60 * time.Second

// DefaultRequestTimeout bounds one HTTP attempt.
const DefaultRequestTimeout = 10 * time.Second

// NewClient builds a client for a ticsgate base URL with a fresh random
// source identity and the given per-frame freshness budget.
func NewClient(base string, freshMs float64) *Client {
	var b [8]byte
	rand.Read(b[:])
	return &Client{
		Base:    strings.TrimRight(base, "/"),
		Source:  "fleet-" + hex.EncodeToString(b[:]),
		FreshMs: freshMs,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: DefaultRequestTimeout}
}

// IngestWave ships one wave of arrivals as the next batch, or, when its
// body would exceed MaxIngestBody, as the next several batches, halving
// until each part fits. Called from the fleet's deterministic channel
// pass, in wave order.
func (c *Client) IngestWave(arrivals []fleet.Arrival) error {
	frames := make([]Frame, len(arrivals))
	for i, a := range arrivals {
		frames[i] = FrameFromArrival(a, c.FreshMs)
	}
	return c.ingest(frames)
}

// ingest sends frames as the next batch, split as IngestWave describes.
// A part is numbered only when it is sent, so the numbers stay
// consecutive and the server's per-source high-water mark applies each
// part exactly once.
func (c *Client) ingest(frames []Frame) error {
	body, err := json.Marshal(IngestRequest{Source: c.source(), Batch: c.batch + 1, Frames: frames})
	if err != nil {
		return err
	}
	if len(body) > MaxIngestBody && len(frames) > 1 {
		half := len(frames) / 2
		if err := c.ingest(frames[:half]); err != nil {
			return err
		}
		return c.ingest(frames[half:])
	}
	c.batch++
	var resp IngestResponse
	return c.retry(func() error {
		return c.once(http.MethodPost, "/v1/ingest", body, &resp)
	})
}

// Finalize fetches the service's durable accounting.
func (c *Client) Finalize() (fleet.RemoteSummary, error) {
	var sum fleet.RemoteSummary
	err := c.retry(func() error {
		return c.once(http.MethodGet, "/v1/digest", nil, &sum)
	})
	return sum, err
}

func (c *Client) source() string {
	if c.Source == "" {
		c.Source = NewClient("", 0).Source
	}
	return c.Source
}

// transientError marks failures worth retrying: transport errors and
// 5xx server states. 4xx responses are protocol bugs and surface
// immediately.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

func (c *Client) once(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return transientError{fmt.Errorf("gate: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("gate: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A response torn by a dying gateway: the batch may or may not
		// be durable, which is exactly what the retry + idempotent
		// replay path resolves.
		return transientError{fmt.Errorf("gate: %s %s: decoding response: %w", method, path, err)}
	}
	return nil
}

// retry runs fn until it succeeds, fails non-transiently, or the retry
// budget runs out; backoff doubles from 100ms to a 2s ceiling.
func (c *Client) retry(fn func() error) error {
	budget := c.RetryBudget
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	deadline := time.Now().Add(budget)
	backoff := 100 * time.Millisecond
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if _, ok := err.(transientError); !ok {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: retry budget (%s) exhausted: %w", budget, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
