package obs

import (
	"strings"
	"testing"
)

func TestParseProcStatus(t *testing.T) {
	const status = `Name:	ticsfleet
VmPeak:	 1234568 kB
VmSize:	 1234567 kB
VmHWM:	   20480 kB
VmRSS:	   10240 kB
Threads:	9
`
	rss, peak, ok := parseProcStatus(strings.NewReader(status))
	if !ok {
		t.Fatal("parseProcStatus failed on a well-formed status file")
	}
	if rss != 10240*1024 || peak != 20480*1024 {
		t.Fatalf("rss=%d peak=%d, want %d and %d", rss, peak, 10240*1024, 20480*1024)
	}
	if _, _, ok := parseProcStatus(strings.NewReader("Name: x\n")); ok {
		t.Fatal("parseProcStatus should fail without VmRSS/VmHWM")
	}
	if _, _, ok := parseProcStatus(strings.NewReader("VmRSS: zebra kB\nVmHWM: 1 kB\n")); ok {
		t.Fatal("parseProcStatus should fail on a malformed value")
	}
}

// TestSampleResourcesMonotone pins the fields the bench sweep relies on
// being monotone: total allocations and GC pause totals only grow, and
// the peak RSS never drops below the current RSS within one sample.
func TestSampleResourcesMonotone(t *testing.T) {
	a := SampleResources()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64*1024))
	}
	_ = sink
	b := SampleResources()

	if b.TotalAllocBytes < a.TotalAllocBytes {
		t.Fatalf("TotalAlloc went backwards: %d -> %d", a.TotalAllocBytes, b.TotalAllocBytes)
	}
	if b.TotalAllocBytes-a.TotalAllocBytes < 64*64*1024 {
		t.Fatalf("TotalAlloc missed ~4MB of allocation: delta %d", b.TotalAllocBytes-a.TotalAllocBytes)
	}
	if b.GCPauseTotalNs < a.GCPauseTotalNs || b.NumGC < a.NumGC {
		t.Fatalf("GC totals went backwards: %+v -> %+v", a, b)
	}
	for _, s := range []ResourceSnapshot{a, b} {
		if s.Goroutines < 1 {
			t.Fatalf("goroutine count %d", s.Goroutines)
		}
		if s.PeakRSSBytes >= 0 && s.RSSBytes >= 0 && s.PeakRSSBytes < s.RSSBytes {
			t.Fatalf("peak RSS %d below current RSS %d", s.PeakRSSBytes, s.RSSBytes)
		}
		if s.Source != "proc" && s.Source != "runtime" {
			t.Fatalf("source %q", s.Source)
		}
	}
}

func TestResourceSnapshotExports(t *testing.T) {
	s := ResourceSnapshot{
		HeapInuseBytes: 100, HeapSysBytes: 200, TotalAllocBytes: 300,
		GCPauseTotalNs: 4, NumGC: 5, Goroutines: 6,
		RSSBytes: 700, PeakRSSBytes: 800, Source: "proc",
	}
	reg := NewRegistry()
	s.SetGauges(reg, "res_")
	if got := reg.Gauge("res_peak_rss_bytes"); got != 800 {
		t.Fatalf("res_peak_rss_bytes = %g", got)
	}
	if got := reg.Gauge("res_goroutines"); got != 6 {
		t.Fatalf("res_goroutines = %g", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE res_peak_rss_bytes gauge",
		"res_peak_rss_bytes 800",
		"res_heap_inuse_bytes 100",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prom output missing %q:\n%s", want, b.String())
		}
	}

	// Unknown RSS is absent, not zero.
	s.RSSBytes, s.PeakRSSBytes = -1, -1
	reg2 := NewRegistry()
	s.SetGauges(reg2, "res_")
	var b2 strings.Builder
	if err := reg2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), "rss") {
		t.Fatalf("unknown RSS leaked into export:\n%s", b2.String())
	}

}

func TestGaugeRefSharing(t *testing.T) {
	reg := NewRegistry()
	g := reg.GaugeRef("x")
	g.Set(2)
	g.Add(3)
	if reg.Gauge("x") != 5 {
		t.Fatalf("gauge via ref = %g, want 5", reg.Gauge("x"))
	}
	reg.SetGauge("x", 9)
	if g.Value() != 9 {
		t.Fatalf("ref missed SetGauge: %g", g.Value())
	}
	if reg.GaugeRef("x") != g {
		t.Fatal("GaugeRef not stable")
	}

	other := NewRegistry()
	other.SetGauge("x", 1)
	if err := reg.Merge(other); err != nil {
		t.Fatal(err)
	}
	if g.Value() != 10 {
		t.Fatalf("merge through refs: %g, want 10", g.Value())
	}
}
