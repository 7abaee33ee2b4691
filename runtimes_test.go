// Determinism golden over every runtime: each row pins one run's full
// event stream (SHA-256), result digest, NV traffic and runtime counters,
// so a refactor of any runtime's checkpoint, undo-log or task-commit path
// must leave every byte of behaviour unchanged.
package tics_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/replay"
)

var updateRuntimes = flag.Bool("update-runtimes", false, "rewrite testdata/runtimes.golden")

// runtimesMaxCycles caps every golden run: the livelocking task rows
// (a task longer than its power window never commits) would otherwise
// run to the default watchdog.
const runtimesMaxCycles = 2_000_000

// runtimeRow is one golden run: a replay spec and its row label.
type runtimeRow struct {
	label string
	spec  replay.Spec
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
			for _, v := range []runtimeRow{
				{"tics/block16", replay.Spec{UndoBlockBytes: 16}},
				{"tics/block64", replay.Spec{UndoBlockBytes: 64}},
				{"tics/differential", replay.Spec{DifferentialCheckpoints: true}},
				{"tics/undocap96", replay.Spec{UndoCapBytes: 96}},
			} {
				s := v.spec
				s.App, s.Power, s.Seed, s.MaxCycles, s.Runtime = app, pw, 1, runtimesMaxCycles, string(tics.RTTICS)
				rows = append(rows, runtimeRow{label: v.label, spec: s})
			}
		}
	}
	// Mementos with its voltage gate on (Table 2's configuration), whose
	// cold boot must commit a checkpoint the gate would skip.
	for _, app := range []string{"bc", "cf", "ar", "ghm"} {
		for _, pw := range []string{"harvest:40000,800", "fail:3000", "fail:700"} {
			s := replay.Spec{App: app, Power: pw, Seed: 1, MaxCycles: runtimesMaxCycles,
				Runtime: string(tics.RTMementos), VoltageThresholdCycles: 3000}
			rows = append(rows, runtimeRow{label: "mementos/voltage3000", spec: s})
		}
	}
	return rows
}

// runRow executes one row and renders it as a golden line.
func runRow(r runtimeRow) (string, map[string]int64, error) {
	head := fmt.Sprintf("%s %s %s", r.spec.App, r.label, r.spec.Power)
	_, run, err := replay.Record(r.spec, nil)
	if err != nil {
		return head + " error: " + err.Error(), nil, nil
	}
	stats := run.Result.RuntimeStats
	digest, err := json.Marshal(run.Res)
	if err != nil {
		return "", nil, err
	}
	memJSON, err := json.Marshal(run.Result.MemStats)
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
		head, run.SHA256, digest, memJSON, strings.Join(kv, ",")), stats, nil
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
