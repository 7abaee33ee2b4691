// Pins of the Prometheus and Dump outputs the services expose: each
// byte stream is frozen under testdata/metrics so a change to the
// metrics writer must leave every exporter byte-identical.
package tics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gate"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite the testdata/metrics golden files")

// checkGolden compares got to testdata/metrics/name, or rewrites the
// file under -update-metrics.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "metrics", name)
	if *updateMetrics {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end>"
		}
		t.Fatalf("output differs from %s at line %d:\n got %q\nwant %q", path, i+1, line(g), line(w))
	}
}

// getBody fetches url from a test server and returns the body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return b
}

// gateRecovery matches the value of the one host-timed ticsgate sample.
var gateRecovery = regexp.MustCompile(`(?m)^(gate_recovery_ms) .*$`)

// gateMetrics drives a fresh ticsgate through a fixed ingest sequence —
// applied batches from two sources with a duplicate and an expired
// frame, a replayed batch, a batch gap and an undecodable body — and
// returns its /metrics body.
func gateMetrics(t *testing.T) []byte {
	t.Helper()
	st, err := gate.Open(t.TempDir(), gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(gate.NewServer(st).Handler())
	defer ts.Close()

	post := func(body []byte, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("ingest %s: %d, want %d", body, resp.StatusCode, want)
		}
	}
	ingest := func(req gate.IngestRequest, want int) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		post(b, want)
	}
	a1 := gate.IngestRequest{Source: "a", Batch: 1, Frames: []gate.Frame{
		{Dev: 1, Seq: 1, Value: 7, SentMs: 1, DeviceMs: 1, ArriveMs: 5},
		{Dev: 1, Seq: 2, Value: 8, SentMs: 2, DeviceMs: 2, ArriveMs: 6},
		{Dev: 1, Seq: 2, Value: 8, SentMs: 2, DeviceMs: 2, ArriveMs: 9, Attempt: 1},
		{Dev: 2, Seq: 1, Value: 9, SentMs: 3, DeviceMs: 3, ArriveMs: 60, FreshMs: 10},
	}}
	ingest(a1, http.StatusOK)
	ingest(a1, http.StatusOK) // replayed
	ingest(gate.IngestRequest{Source: "a", Batch: 3}, http.StatusConflict)
	post([]byte("{nope"), http.StatusBadRequest)
	ingest(gate.IngestRequest{Source: "b", Batch: 1, Frames: []gate.Frame{
		{Dev: 3, Seq: 1, Value: 1, SentMs: 4, DeviceMs: 4, ArriveMs: 8},
		{Dev: 1, Seq: 1, Value: 7, SentMs: 1, DeviceMs: 1, ArriveMs: 12, Attempt: 2},
	}}, http.StatusOK)
	return getBody(t, ts.URL+"/metrics")
}

// TestGateMetricsGolden pins ticsgate's GET /metrics after a fixed
// ingest sequence; only the host-timed gate_recovery_ms value is masked.
func TestGateMetricsGolden(t *testing.T) {
	got := gateRecovery.ReplaceAll(gateMetrics(t), []byte("$1 <host>"))
	checkGolden(t, "ticsgate.golden", got)
}

// fleetHostSeries matches the fleet export lines that sample the host
// (phase wall times, heap, RSS, GC), the only ones that vary between
// runs.
var fleetHostSeries = regexp.MustCompile(`(?m)^fleet_(phase_seconds|resource_).*\n`)

// serveCfg is the fleet `ticsfleet -serve ADDR -n 16 -wall 300 -fresh
// 100` runs: ticsfleet's flag defaults with those three overrides.
func serveCfg() fleet.Config {
	return fleet.Config{
		Devices: 16, App: "ghm", Runtime: "tics",
		Power: "harvest:40000,800", Clock: "perfect", Seed: 1, WallMs: 300,
		Link: fleet.LinkParams{
			Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20, BackoffMs: 5,
			GELossGood: 0.01, GELossBad: 0.5, GEGoodToBad: 0.05, GEBadToGood: 0.2,
		},
		FreshnessMs: 100,
	}
}

// fleetServeMetrics runs one served fleet round and returns /metrics.
// The round flags straggler devices 0, 3, 7, 8, 12, 13 and 14, so the
// labeled anomaly family must keep device order ("12" sorts before "3"
// as a string).
func fleetServeMetrics(t *testing.T) []byte {
	t.Helper()
	s := fleet.NewServer(serveCfg(), false)
	if err := s.RunFleet(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	return getBody(t, ts.URL+"/metrics")
}

// TestFleetServeMetricsGolden pins `ticsfleet -serve` GET /metrics with
// the host-sampled sample lines dropped.
func TestFleetServeMetricsGolden(t *testing.T) {
	checkGolden(t, "fleet-serve.golden", fleetHostSeries.ReplaceAll(fleetServeMetrics(t), nil))
}

// expositionError is a strict reader of the Prometheus text format: each
// family has exactly one `# TYPE` line and its samples follow that line
// contiguously, a histogram's samples are named only _bucket, _sum and
// _count, and every sample value parses.
func expositionError(text []byte) error {
	typed := map[string]bool{}
	var names []string // sample names the open family may use
	for i, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				return fmt.Errorf("line %d: malformed %q", i+1, line)
			}
			if typed[f[0]] {
				return fmt.Errorf("line %d: second # TYPE for family %s", i+1, f[0])
			}
			typed[f[0]] = true
			switch f[1] {
			case "counter", "gauge":
				names = []string{f[0]}
			case "histogram":
				names = []string{f[0] + "_bucket", f[0] + "_sum", f[0] + "_count"}
			default:
				return fmt.Errorf("line %d: unknown type %q", i+1, f[1])
			}
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end <= 0 || strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: not a sample: %q", i+1, line)
		}
		if !slices.Contains(names, line[:end]) {
			return fmt.Errorf("line %d: sample %s outside its family's block (open family allows %v)", i+1, line[:end], names)
		}
		if _, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	if len(typed) == 0 {
		return errors.New("no metric families")
	}
	return nil
}

// TestExpositionIsValid runs the strict reader over every Prometheus
// surface: Report.WritePrometheus, fleet /metrics and ticsgate /metrics.
func TestExpositionIsValid(t *testing.T) {
	cfg := serveCfg()
	cfg.Collect = true
	rep, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := rep.WritePrometheus(&report); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string][]byte{
		"Report.WritePrometheus": report.Bytes(),
		"fleet /metrics":         fleetServeMetrics(t),
		"ticsgate /metrics":      gateMetrics(t),
	} {
		if err := expositionError(text); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The reader itself refuses a family typed twice, a sample away
	// from its family's block and a stray histogram sample.
	for _, bad := range []string{
		"# TYPE a counter\na 1\n# TYPE a counter\na{shard=\"dev0\"} 1\n",
		"# TYPE a counter\n# TYPE b gauge\na 1\n",
		"# TYPE h histogram\nh 1\n",
	} {
		if expositionError([]byte(bad)) == nil {
			t.Errorf("accepted invalid exposition:\n%s", bad)
		}
	}
}
