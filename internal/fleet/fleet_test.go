package fleet

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
)

func TestDeviceSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for dev := 0; dev < 1000; dev++ {
		s := DeviceSeed(1, dev)
		if s == 0 {
			t.Fatalf("device %d: zero seed", dev)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("devices %d and %d share seed %#x", prev, dev, s)
		}
		seen[s] = dev
		if s != DeviceSeed(1, dev) {
			t.Fatalf("device %d: seed not stable", dev)
		}
	}
	if DeviceSeed(1, 0) == DeviceSeed(2, 0) {
		t.Fatal("different fleet seeds produced the same device seed")
	}
}

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {7, 1}, {7, 3}, {100, 8}, {5, 16}, {64, 0},
	} {
		counts := make([]int32, tc.n)
		ParallelFor(tc.n, tc.workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestParallelForBalancesSkew gives the first span one huge job and the
// rest tiny ones; the pool must still finish every index (thieves drain
// the slow owner's span) well before a serial schedule would.
func TestParallelForBalancesSkew(t *testing.T) {
	const n = 64
	var ran atomic.Int32
	ParallelFor(n, 4, func(i int) {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		ran.Add(1)
	})
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d jobs", got, n)
	}
}

func fleetCfg(workers int) Config {
	return Config{
		Devices: 8,
		Workers: workers,
		App:     "ghm",
		Runtime: "tics",
		Power:   "harvest:40000,800",
		Seed:    42,
		WallMs:  300,
		Link: LinkParams{
			Loss: 0.1, Dup: 0.05, DelayMinMs: 2, DelayMaxMs: 20,
			Retransmits: 2, BackoffMs: 5,
		},
		FreshnessMs: 500,
		Collect:     true,
	}
}

// TestFleetDeterminismAcrossWorkers is the acceptance gate for the whole
// design: a fleet's externally visible result — gateway log digest,
// gateway/link counters, per-device outcomes, merged metrics, merged
// profile — must be byte-identical no matter how many workers simulated
// it.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	profiled := func(workers int) Config {
		cfg := fleetCfg(workers)
		cfg.Profile = true
		return cfg
	}
	serial, err := Run(profiled(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(profiled(4))
	if err != nil {
		t.Fatal(err)
	}

	if serial.Digest != parallel.Digest {
		t.Fatalf("gateway digests diverge:\n workers=1: %s\n workers=4: %s", serial.Digest, parallel.Digest)
	}
	if serial.Gateway != parallel.Gateway {
		t.Fatalf("gateway stats diverge: %+v vs %+v", serial.Gateway, parallel.Gateway)
	}
	if serial.Link != parallel.Link {
		t.Fatalf("link stats diverge: %+v vs %+v", serial.Link, parallel.Link)
	}
	if serial.Sends != parallel.Sends || serial.UniqueSends != parallel.UniqueSends ||
		serial.Lost != parallel.Lost || serial.TotalCycles != parallel.TotalCycles {
		t.Fatalf("aggregates diverge: %+v vs %+v", serial, parallel)
	}
	if serial.LatencyP50 != parallel.LatencyP50 || serial.LatencyP99 != parallel.LatencyP99 {
		t.Fatal("latency quantiles diverge")
	}
	for i := range serial.Outcomes {
		a, b := serial.Outcomes[i], parallel.Outcomes[i]
		if a.Seed != b.Seed || a.Res.Cycles != b.Res.Cycles || a.Sends != b.Sends {
			t.Fatalf("device %d outcomes diverge: %+v vs %+v", i, a, b)
		}
	}

	var sb, pb strings.Builder
	serial.Metrics.Dump(&sb)
	parallel.Metrics.Dump(&pb)
	if sb.String() != pb.String() {
		t.Fatalf("merged metrics diverge:\n workers=1:\n%s\n workers=4:\n%s", sb.String(), pb.String())
	}
	if sb.Len() == 0 {
		t.Fatal("merged metrics are empty; Collect plumbed nowhere")
	}
	sp, _ := json.Marshal(serial.Profile)
	pp, _ := json.Marshal(parallel.Profile)
	if string(sp) != string(pp) {
		t.Fatalf("merged profiles diverge:\n workers=1: %s\n workers=4: %s", sp, pp)
	}
	if len(serial.Profile.Folded) == 0 {
		t.Fatal("merged profile has no folded stacks; Profile plumbed nowhere")
	}
}

// TestFleetDeviceExportReplays: every fleet member is exportable as a
// replay manifest whose recorded run has the in-fleet outcome's result
// digest, and the manifest re-verifies bit-identically. The config sets
// every field replay.Spec.Machine maps (virtualized sends, timer
// checkpoints, a cycle watchdog, a remanence clock) and runs fewer
// workers than devices, so later devices run on reset pooled machines.
func TestFleetDeviceExportReplays(t *testing.T) {
	cfg := fleetCfg(2)
	cfg.Devices = 6
	cfg.Virtualize = true
	cfg.TimerMs = 3
	cfg.MaxCycles = 120_000
	cfg.Clock = "remanence:0.1,500"
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Starved == 0 {
		t.Fatal("no device hit the MaxCycles watchdog; the config no longer exercises it")
	}
	for dev := 0; dev < cfg.Devices; dev++ {
		man, recorded, err := ExportDevice(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		out := rep.Outcomes[dev]
		inFleet := replay.DigestOf(out.Res)
		inFleet.Sends = out.Sends // the channel pass consumed the send log
		if recorded.Res != inFleet {
			t.Fatalf("device %d: exported run diverges from fleet outcome:\n recorded %+v\n fleet    %+v",
				dev, recorded.Res, inFleet)
		}

		replayed, err := replay.Replay(man, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.VerifyReplay(man, replayed); err != nil {
			t.Fatalf("device %d: exported manifest does not re-verify: %v", dev, err)
		}
	}

	if _, _, err := ExportDevice(cfg, cfg.Devices); err == nil {
		t.Fatal("out-of-range export did not error")
	}
}

// TestFleetRace is the shared-state regression for the RNG/state audit:
// run a fleet with maximum sharing opportunity (one image, parallel
// workers, recorders attached) under the race detector. Any
// package-level or cross-device mutable state shows up here.
func TestFleetRace(t *testing.T) {
	cfg := fleetCfg(4)
	cfg.Devices = 12
	cfg.WallMs = 100
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFleetThroughputReported(t *testing.T) {
	rep, err := Run(Config{Devices: 2, Workers: 1, App: "ghm", WallMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles <= 0 || rep.Throughput <= 0 {
		t.Fatalf("throughput not accounted: %+v", rep)
	}
	if rep.Devices != 2 || rep.Workers != 1 {
		t.Fatalf("report misdescribes the fleet: %+v", rep)
	}
}
