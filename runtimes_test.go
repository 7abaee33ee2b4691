// Determinism golden over every runtime: each row pins one run's full
// event stream (SHA-256), result digest, NV traffic and runtime counters,
// so a refactor of any runtime's checkpoint, undo-log or task-commit path
// must leave every byte of behaviour unchanged.
package tics_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/replay"
)

var updateRuntimes = flag.Bool("update-runtimes", false, "rewrite testdata/runtimes.golden")

// runtimesMaxCycles caps every golden run: the livelocking task rows
// (a task longer than its power window never commits) would otherwise
// run to the default watchdog.
const runtimesMaxCycles = 2_000_000

// runtimeRow is one golden run. A non-nil build bypasses the spec's
// build knobs and links the app with these options directly (knobs
// replay.Spec does not carry: the TICS ablations, the Mementos voltage
// gate).
type runtimeRow struct {
	label string
	spec  replay.Spec
	build *tics.BuildOptions
}

func runtimeRows() []runtimeRow {
	noVersion := false
	var rows []runtimeRow
	for _, app := range []string{"bc", "cf", "ar", "ghm"} {
		for _, pw := range []string{"harvest:40000,800", "fail:3000", "fail:700"} {
			spec := replay.Spec{App: app, Power: pw, Seed: 1, MaxCycles: runtimesMaxCycles}
			for _, rt := range tics.Runtimes() {
				s := spec
				s.Runtime = string(rt)
				rows = append(rows, runtimeRow{label: string(rt), spec: s})
			}
			s := spec
			s.Runtime, s.VersionGlobals = string(tics.RTMementos), &noVersion
			rows = append(rows, runtimeRow{label: "mementos/unversioned", spec: s})
			for _, v := range []struct {
				label string
				opts  tics.BuildOptions
			}{
				{"tics/block16", tics.BuildOptions{UndoBlockBytes: 16}},
				{"tics/block64", tics.BuildOptions{UndoBlockBytes: 64}},
				{"tics/differential", tics.BuildOptions{DifferentialCheckpoints: true}},
				{"tics/undocap96", tics.BuildOptions{UndoCapBytes: 96}},
			} {
				s := spec
				s.Runtime = string(tics.RTTICS)
				opts := v.opts
				opts.Runtime = tics.RTTICS
				rows = append(rows, runtimeRow{label: v.label, spec: s, build: &opts})
			}
		}
	}
	// Mementos with its voltage gate on (Table 2's configuration), whose
	// cold boot must commit a checkpoint the gate would skip.
	for _, app := range []string{"bc", "cf", "ar", "ghm"} {
		for _, pw := range []string{"harvest:40000,800", "fail:3000", "fail:700"} {
			s := replay.Spec{App: app, Power: pw, Seed: 1, MaxCycles: runtimesMaxCycles, Runtime: string(tics.RTMementos)}
			opts := tics.BuildOptions{Runtime: tics.RTMementos, VoltageThresholdCycles: 3000}
			rows = append(rows, runtimeRow{label: "mementos/voltage3000", spec: s, build: &opts})
		}
	}
	return rows
}

// captureSink keeps a direct build's full event stream, hashed like
// replay.Run.SHA256.
type captureSink struct{ events []obs.Event }

func (c *captureSink) OnEvent(_ int64, ev obs.Event) { c.events = append(c.events, ev) }

// runRow executes one row and renders it as a golden line.
func runRow(r runtimeRow) (string, map[string]int64, error) {
	head := fmt.Sprintf("%s %s %s", r.spec.App, r.label, r.spec.Power)
	var (
		sha   string
		res   replay.ResultDigest
		stats map[string]int64
		ms    any
	)
	if r.build == nil {
		_, run, err := replay.Record(r.spec, nil)
		if err != nil {
			return head + " error: " + err.Error(), nil, nil
		}
		sha, res, stats, ms = run.SHA256, run.Res, run.Result.RuntimeStats, run.Result.MemStats
	} else {
		app, ok := apps.ByName(r.spec.App)
		if !ok {
			return "", nil, fmt.Errorf("unknown app %s", r.spec.App)
		}
		img, err := tics.Build(app.Source, *r.build)
		if err != nil {
			return head + " error: " + err.Error(), nil, nil
		}
		sink := &captureSink{}
		rec := obs.NewRecorder(obs.Options{RingCap: 1024})
		rec.AddSink(sink)
		m, err := r.spec.Machine(img, nil, nil, rec)
		if err != nil {
			return "", nil, err
		}
		result, _ := m.Run()
		jsonl, err := obs.EventsJSONL(sink.events)
		if err != nil {
			return "", nil, err
		}
		sum := sha256.Sum256(jsonl)
		sha = hex.EncodeToString(sum[:])
		res, stats, ms = replay.DigestOf(result), result.RuntimeStats, result.MemStats
	}
	digest, err := json.Marshal(res)
	if err != nil {
		return "", nil, err
	}
	memJSON, err := json.Marshal(ms)
	if err != nil {
		return "", nil, err
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := make([]string, len(keys))
	for i, k := range keys {
		kv[i] = fmt.Sprintf("%s=%d", k, stats[k])
	}
	return fmt.Sprintf("%s events=%s result=%s mem=%s stats={%s}",
		head, sha, digest, memJSON, strings.Join(kv, ",")), stats, nil
}

// TestRuntimesGolden pins every runtime (plus Mementos without global
// versioning or with its voltage gate, and the TICS block-log,
// differential-checkpoint and tiny-log builds) on four apps under three
// power regimes. Regenerate with
// go test -run TestRuntimesGolden -update-runtimes.
func TestRuntimesGolden(t *testing.T) {
	var sb strings.Builder
	rolledBack := map[string]bool{}
	for _, r := range runtimeRows() {
		line, stats, err := runRow(r)
		if err != nil {
			t.Fatalf("%s %s %s: %v", r.spec.App, r.label, r.spec.Power, err)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
		if stats["undo-rollbacks"] > 0 {
			rolledBack[r.spec.Runtime] = true
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "runtimes.golden")
	if *updateRuntimes {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run go test -run TestRuntimesGolden -update-runtimes): %v", err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("row %d drifted from %s:\ngot:  %s\nwant: %s", i+1, path, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d rows, want %d", path, len(gl), len(wl))
		}
	}
	// Every undo-logging runtime must actually exercise its rollback path
	// somewhere in the table, or the golden pins nothing about it.
	for _, rt := range []tics.RuntimeKind{tics.RTTICS, tics.RTTICSTask, tics.RTChinchilla,
		tics.RTAlpaca, tics.RTInK, tics.RTMayFly} {
		if !rolledBack[string(rt)] {
			t.Errorf("no golden row rolls back the %s undo log", rt)
		}
	}
}
