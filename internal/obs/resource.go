package obs

import (
	"bufio"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// ResourceSnapshot is one sample of the *host* process's resource use —
// the simulator observing itself, the way the paper's host-side cost
// attribution observes checkpoint/restore overheads. All fields are
// process-wide: a fleet run samples before and after a phase to
// attribute bytes and goroutines to it.
//
// Peak RSS comes from /proc/self/status (VmHWM) where available; on
// hosts without procfs the sampler falls back to runtime.MemStats and
// reports the Go heap's Sys bytes instead (Source says which). RSS and
// peak RSS are -1 when even the fallback has nothing meaningful to say
// about the process footprint (never on Linux or any Go port, since the
// MemStats fallback always works — the field is signed so readers of
// serialized snapshots from other tools can express "unknown").
type ResourceSnapshot struct {
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"` // monotone over the process
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"` // monotone over the process
	NumGC           uint32 `json:"num_gc"`            // monotone over the process
	Goroutines      int    `json:"goroutines"`
	RSSBytes        int64  `json:"rss_bytes"`      // current VmRSS (-1 unknown)
	PeakRSSBytes    int64  `json:"peak_rss_bytes"` // VmHWM high-water mark (-1 unknown)
	Source          string `json:"source"`         // "proc" or "runtime"
}

// SampleResources reads one snapshot: runtime.MemStats plus, when the
// host has procfs, VmRSS/VmHWM from /proc/self/status.
func SampleResources() ResourceSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := ResourceSnapshot{
		HeapInuseBytes:  ms.HeapInuse,
		HeapSysBytes:    ms.HeapSys,
		TotalAllocBytes: ms.TotalAlloc,
		GCPauseTotalNs:  ms.PauseTotalNs,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
		RSSBytes:        -1,
		PeakRSSBytes:    -1,
		Source:          "runtime",
	}
	if f, err := os.Open("/proc/self/status"); err == nil {
		rss, peak, ok := parseProcStatus(f)
		f.Close()
		if ok {
			s.RSSBytes, s.PeakRSSBytes, s.Source = rss, peak, "proc"
			return s
		}
	}
	// MemStats fallback: the Go heap's footprint stands in for RSS. It
	// undercounts (no stacks, no runtime structures) but is monotone in
	// the same direction, which is all the regression gate needs.
	s.RSSBytes = int64(ms.HeapInuse)
	s.PeakRSSBytes = int64(ms.HeapSys)
	return s
}

// parseProcStatus extracts VmRSS and VmHWM (in bytes) from the
// /proc/self/status key-value format. ok is false unless both keys were
// found and parsed.
func parseProcStatus(r io.Reader) (rss, peak int64, ok bool) {
	rss, peak = -1, -1
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rss
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &peak
		default:
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		*dst = kb * 1024
	}
	return rss, peak, rss >= 0 && peak >= 0
}

// ResetPeakRSS asks the kernel to reset the process's RSS high-water
// mark (write "5" to /proc/self/clear_refs), so the next snapshot's
// PeakRSSBytes covers only work done since. Returns false where the
// knob does not exist (non-Linux) — callers then attribute against the
// monotone process-wide peak and say so.
func ResetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// SetGauges publishes the snapshot into a registry as prefixed gauges —
// the bridge onto the existing Prometheus/Dump/Merge paths. Unknown
// (-1) RSS fields are skipped so absence is visible, not zero.
func (s ResourceSnapshot) SetGauges(reg *Registry, prefix string) {
	reg.SetGauge(prefix+"heap_inuse_bytes", float64(s.HeapInuseBytes))
	reg.SetGauge(prefix+"heap_sys_bytes", float64(s.HeapSysBytes))
	reg.SetGauge(prefix+"total_alloc_bytes", float64(s.TotalAllocBytes))
	reg.SetGauge(prefix+"gc_pause_total_ns", float64(s.GCPauseTotalNs))
	reg.SetGauge(prefix+"gc_cycles", float64(s.NumGC))
	reg.SetGauge(prefix+"goroutines", float64(s.Goroutines))
	if s.RSSBytes >= 0 {
		reg.SetGauge(prefix+"rss_bytes", float64(s.RSSBytes))
	}
	if s.PeakRSSBytes >= 0 {
		reg.SetGauge(prefix+"peak_rss_bytes", float64(s.PeakRSSBytes))
	}
}
