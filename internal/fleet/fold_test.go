package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/replay"
)

// perDeviceReference re-runs a finished round the way a fleet with a
// fresh machine and a fresh recorder per device would. Every device's
// outcome must equal the round's (its Result, send counts and seed), and
// the fresh send logs, passed through the same channel into a fresh
// gateway, must give the round's link and gateway stats and digest. It
// returns the telemetry folded from the fresh recorders: the registries
// merged in device order, the profiles merged likewise, then the same
// fleet_* rollups, and each device's registry dump, what DeviceRegistry
// must reproduce.
func perDeviceReference(t *testing.T, cfg Config, spec func(dev int) replay.Spec, rep *Report) (*obs.Registry, obs.Profile, []string) {
	t.Helper()
	img, _, err := replay.BuildImage(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	merged := obs.NewRegistry()
	var profiles []obs.Profile
	dumps := make([]string, rep.Devices)
	gw := NewGateway(cfg.FreshnessMs)
	var link LinkStats
	for dev := 0; dev < rep.Devices; dev++ {
		spec := spec(dev)
		rec := obs.NewRecorder(obs.Options{RingCap: 64, Profile: cfg.Profile})
		m, err := spec.Machine(img, nil, nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := m.Run()
		log := res.SendLog
		res.SendLog = nil
		got := rep.Outcomes[dev]
		if !reflect.DeepEqual(res, got.Res) || got.Seed != spec.Seed ||
			got.Sends != len(log) || int64(got.UniqueSends) != uniqueSends(log) {
			t.Fatalf("device %d: fleet outcome differs from a fresh run:\n got %+v\nwant %+v (sends %d, unique %d, seed %d)",
				dev, got, res, len(log), uniqueSends(log), spec.Seed)
		}
		arr, st := transmit(dev, DeviceSeed(cfg.Seed, dev), cfg.Link, log, nil)
		link.add(st)
		for _, a := range arr {
			gw.Accept(a)
		}
		if err := merged.Merge(rec.Metrics()); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, rec.Profile())
		var b strings.Builder
		rec.Metrics().Dump(&b)
		dumps[dev] = b.String()
	}
	if link != rep.Link {
		t.Fatalf("link stats differ from fresh runs: %+v vs %+v", rep.Link, link)
	}
	if sum := gw.Summary(); sum.Digest != rep.Digest || sum.Stats != rep.Gateway {
		t.Fatalf("gateway differs from fresh runs: digest %s, %+v\nvs digest %s, %+v", rep.Digest, rep.Gateway, sum.Digest, sum.Stats)
	}
	if err := addRollups(merged, rep); err != nil {
		t.Fatal(err)
	}
	return merged, obs.MergeProfiles(profiles...), dumps
}

func registryText(t *testing.T, reg *obs.Registry) (dump, prom string) {
	t.Helper()
	var d, p strings.Builder
	reg.Dump(&d)
	if err := reg.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	return d.String(), p.String()
}

// TestWorkerFoldEqualsPerDeviceMerge: a round whose pool slots each fold
// their devices into one rearmed recorder reports exactly the metrics,
// Prometheus text, profile and per-device registries of one fresh
// recorder per device merged in device order — for every runtime that
// observes into a recorder, any worker count, and tiny and automatic
// waves.
func TestWorkerFoldEqualsPerDeviceMerge(t *testing.T) {
	for _, rt := range []string{"tics", "mementos", "chinchilla", "alpaca"} {
		base := Config{
			Devices: 9, App: "ar", Runtime: rt, Seed: 5,
			Power: "harvest:40000,800", WallMs: 300, FreshnessMs: 40,
			Link:    LinkParams{Loss: 0.1, DelayMinMs: 2, DelayMaxMs: 20, Retransmits: 1, BackoffMs: 5},
			Collect: true, Profile: true,
		}
		first, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		ref, refProf, refDumps := perDeviceReference(t, base, base.DeviceSpec, first)
		refDump, refProm := registryText(t, ref)
		refProfJSON, _ := json.Marshal(refProf)
		if !strings.Contains(refDump, "undo_len_per_epoch") && rt != "mementos" {
			t.Fatalf("%s: no undo_len_per_epoch observations; the fold check is vacuous:\n%s", rt, refDump)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, wave := range []int{0, 2} {
				label := fmt.Sprintf("%s workers=%d wave=%d", rt, workers, wave)
				cfg := base
				cfg.Workers, cfg.Wave = workers, wave
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				dump, prom := registryText(t, rep.Metrics)
				if dump != refDump {
					t.Fatalf("%s: merged metrics differ from the per-device merge:\n%s\nvs\n%s", label, dump, refDump)
				}
				if prom != refProm {
					t.Fatalf("%s: Prometheus text differs from the per-device merge", label)
				}
				if p, _ := json.Marshal(rep.Profile); string(p) != string(refProfJSON) {
					t.Fatalf("%s: profile differs from the per-device merge:\n%s\nvs\n%s", label, p, refProfJSON)
				}
				if workers == 2 && wave == 2 {
					for dev, want := range refDumps {
						var b strings.Builder
						rep.DeviceRegistry(dev).Dump(&b)
						if b.String() != want {
							t.Fatalf("%s: DeviceRegistry(%d) differs:\n%s\nvs\n%s", label, dev, b.String(), want)
						}
					}
				}
			}
		}
	}
}

// TestDeviceRegistryNilOutsideCollect: only a Collect (or Profile) round
// can re-derive a device registry; other reports and out-of-range
// devices return nil.
func TestDeviceRegistryNilOutsideCollect(t *testing.T) {
	bare, err := Run(Config{Devices: 2, Workers: 1, App: "ghm", WallMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if bare.DeviceRegistry(0) != nil {
		t.Fatal("DeviceRegistry on a round without Collect is non-nil")
	}
	col, err := Run(Config{Devices: 2, Workers: 1, App: "ghm", WallMs: 50, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if col.DeviceRegistry(-1) != nil || col.DeviceRegistry(2) != nil {
		t.Fatal("DeviceRegistry out of range is non-nil")
	}
	if col.DeviceRegistry(1) == nil {
		t.Fatal("DeviceRegistry on a Collect round is nil")
	}
}
