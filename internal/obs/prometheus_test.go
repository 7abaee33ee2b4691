package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWritePrometheusGolden(t *testing.T) {
	g := NewRegistry()
	g.Add("checkpoint_commits", 3)
	g.Inc("power_failures")
	g.SetGauge("reexec_ratio", 0.25)
	g.RegisterHistogram("checkpoint_latency_cycles", []float64{64, 128})
	g.Observe("checkpoint_latency_cycles", 90)
	g.Observe("checkpoint_latency_cycles", 90)
	g.Observe("checkpoint_latency_cycles", 700)

	var b bytes.Buffer
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "registry.prom")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("prometheus exposition differs from %s:\n--- got ---\n%s--- want ---\n%s",
			golden, b.String(), want)
	}
}

func TestWritePrometheusHistogramIsCumulative(t *testing.T) {
	g := NewRegistry()
	g.RegisterHistogram("lat", []float64{10, 100})
	for _, v := range []float64{1, 10, 11, 1000} {
		g.Observe("lat", v)
	}
	var b bytes.Buffer
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="10"} 2`,
		`lat_bucket{le="100"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		`lat_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// An empty registered histogram is still exposed (with zero samples),
	// unlike Dump which elides it.
	g2 := NewRegistry()
	g2.RegisterHistogram("quiet", []float64{1})
	b.Reset()
	if err := g2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `quiet_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram not exposed:\n%s", b.String())
	}
}

func TestWritePrometheusLabeled(t *testing.T) {
	g := NewRegistry()
	g.Add("sends", 2)
	g.SetGauge("ratio", 0.5)
	g.RegisterHistogram("lat", []float64{10})
	g.Observe("lat", 3)

	var b bytes.Buffer
	if err := g.WritePrometheusLabeled(&b, map[string]string{"shard": "dev7", "app": "ghm"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sends{app="ghm",shard="dev7"} 2`, // label keys sorted
		`ratio{app="ghm",shard="dev7"} 0.5`,
		`lat_bucket{app="ghm",shard="dev7",le="10"} 1`, // le stays last
		`lat_bucket{app="ghm",shard="dev7",le="+Inf"} 1`,
		`lat_sum{app="ghm",shard="dev7"} 3`,
		`lat_count{app="ghm",shard="dev7"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	// A nil label map must degrade to the unlabeled format byte-for-byte.
	var plain, labeled bytes.Buffer
	if err := g.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if err := g.WritePrometheusLabeled(&labeled, nil); err != nil {
		t.Fatal(err)
	}
	if plain.String() != labeled.String() {
		t.Fatal("nil labels do not reproduce the unlabeled format")
	}
}

// TestLabeledGauges: a labeled family is one `# TYPE` line followed by
// its label sets in registration order, sorted among the other gauges
// by family name, and the labels survive Merge and fixed shard labels.
func TestLabeledGauges(t *testing.T) {
	g := NewRegistry()
	g.SetGauge("zeta", 1)
	for _, dev := range []string{"9", "10", "2"} {
		g.LabeledGauge("dev_value", "device", dev, "kind", "k").Set(3)
	}
	g.LabeledGauge("dev_value", "device", "10", "kind", "k").Add(1) // same series
	g.Inc("count")
	want := "# TYPE count counter\ncount 1\n" +
		"# TYPE dev_value gauge\n" +
		"dev_value{device=\"9\",kind=\"k\"} 3\n" +
		"dev_value{device=\"10\",kind=\"k\"} 4\n" +
		"dev_value{device=\"2\",kind=\"k\"} 3\n" +
		"# TYPE zeta gauge\nzeta 1\n"
	var out bytes.Buffer
	if err := g.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("\n%s\nwant:\n%s", out.String(), want)
	}

	merged := NewRegistry()
	for i := 0; i < 2; i++ {
		if err := merged.Merge(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := merged.Gauge(`dev_value{device="10",kind="k"}`); got != 8 {
		t.Fatalf("merged labeled gauge = %g, want 8", got)
	}
	var b bytes.Buffer
	if err := merged.WritePrometheusLabeled(&b, map[string]string{"shard": "s"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE dev_value gauge\n"+`dev_value{shard="s",device="9",kind="k"} 6`+"\n") {
		t.Fatalf("fixed labels do not lead a labeled series:\n%s", b.String())
	}
	b.Reset()
	merged.Dump(&b)
	if !strings.Contains(b.String(), "gauge   "+`dev_value{device="2",kind="k"}`) {
		t.Fatalf("Dump lost the label set:\n%s", b.String())
	}
}

func TestPromNameSanitization(t *testing.T) {
	if got := promName("undo-log.len"); got != "undo_log_len" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("9lives"); got != "_lives" {
		t.Fatalf("promName must not start with a digit: %q", got)
	}
}
