package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestWritePromShards: the exporter writes the merged registry followed
// by every device's own series under {shard="devN"}.
func TestWritePromShards(t *testing.T) {
	rep, err := fleet.Run(fleet.Config{
		Devices: 2, Workers: 1, App: "ghm", WallMs: 50, Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.prom")
	if err := writeProm(rep, path, true); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	if !strings.Contains(out, "fleet_devices 2") {
		t.Fatalf("merged fleet counters missing:\n%.400s", out)
	}
	for _, shard := range []string{`{shard="dev0"}`, `{shard="dev1"}`} {
		if !strings.Contains(out, shard) {
			t.Fatalf("per-device series %s missing:\n%.400s", shard, out)
		}
	}
}

// hostSeries matches the export lines that sample the host (phase wall
// times, heap, RSS, GC), the only ones that vary between runs.
var hostSeries = regexp.MustCompile(`(?m)^fleet_(phase_seconds|resource_).*\n`)

// TestTelemetryGolden: the -prom file (with -prom-shards) followed by the
// -folded file of
//
//	ticsfleet -n 64 -app ghm -ge -retrans 2 -fresh 15 -wall 100 \
//	  -prom F -prom-shards -folded G
//
// stays byte-identical to testdata/fleet-telemetry.golden once the
// host-sampled lines are dropped (CI runs the same command and cmps it).
// Any worker count must produce it.
func TestTelemetryGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/fleet-telemetry.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		rep, err := fleet.Run(fleet.Config{
			Devices: 64, Workers: workers, App: "ghm", Runtime: "tics",
			Power: "harvest:40000,800", Clock: "perfect", Seed: 1, WallMs: 100,
			Link: fleet.LinkParams{
				Loss: 0.05, Dup: 0.02, DelayMinMs: 2, DelayMaxMs: 20,
				Retransmits: 2, BackoffMs: 5,
				GE: true, GELossGood: 0.01, GELossBad: 0.5, GEGoodToBad: 0.05, GEBadToGood: 0.2,
			},
			FreshnessMs: 15,
			Collect:     true,
			Profile:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fleet.prom")
		if err := writeProm(rep, path, true); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var folded bytes.Buffer
		if err := rep.Profile.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		got = hostSeries.ReplaceAll(append(got, folded.Bytes()...), nil)
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
			t.Fatalf("workers=%d: telemetry exports differ from testdata/fleet-telemetry.golden at line %d:\n got %q\nwant %q",
				workers, i+1, line(g), line(w))
		}
	}
}
