// Compiled-image golden: every program the repo ships, built for every
// runtime at -O0 and -O2, pinned by section sizes and a SHA-256 of its
// text and data bytes. A change to the compiler, the optimiser, the
// instrumentation passes or the linker that moves a single byte of any
// image shows up here as a drifted row.
package tics_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/taskrt"
)

var updateImages = flag.Bool("update-images", false, "rewrite testdata/images.golden")

// imageProgram is one source variant with the task decomposition that
// the task-based runtimes build it with (nil for a non-task source).
type imageProgram struct {
	label string
	src   string
	tasks []string
	edges []taskrt.Edge
}

func imagePrograms(t *testing.T) []imageProgram {
	var progs []imageProgram
	add := func(label, src string, tasks []string, edges []taskrt.Edge) {
		if src != "" {
			progs = append(progs, imageProgram{label, src, tasks, edges})
		}
	}
	for _, a := range append(apps.All(), apps.Swap(), apps.Bubble(), apps.Timekeeping(), apps.BCNoRecursion()) {
		add(a.Name, a.Source, nil, nil)
		add(a.Name+"/manual", a.ManualSource, nil, nil)
		add(a.Name+"/task", a.TaskSource, a.Tasks, a.Edges)
		add(a.Name+"/mayfly", a.MayflyTaskSource, a.MayflyTasks, a.MayflyEdges)
	}
	seeded, err := filepath.Glob(filepath.Join("testdata", "vet", "seeded", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range seeded {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("seeded/"+filepath.Base(path), string(src), nil, nil)
	}
	return progs
}

// imageRow builds one program for one runtime at one optimisation level
// and renders it as a golden line: section sizes and the SHA-256 of the
// linked text followed by the initialised data, or the build error.
func imageRow(p imageProgram, rt tics.RuntimeKind, o0 bool) string {
	opts := tics.BuildOptions{Runtime: rt, Tasks: p.tasks, Edges: p.edges}
	level := "O2"
	if o0 {
		opts, level = opts.WithO0(), "O0"
	}
	head := fmt.Sprintf("%s %s %s", p.label, rt, level)
	img, err := tics.Build(p.src, opts)
	if err != nil {
		return head + " error: " + strings.ReplaceAll(err.Error(), "\n", " | ")
	}
	h := sha256.New()
	h.Write(img.Text)
	h.Write(img.Program.DataImage)
	return fmt.Sprintf("%s text=%d data=%d bss=%d sha256=%x",
		head, img.Sect.Text, img.Sect.Data, img.Sect.BSS, h.Sum(nil))
}

// TestImagesGolden pins the compiled bytes of every shipped program.
// Regenerate with go test -run TestImagesGolden -update-images, and only
// on a change whose compiled output is meant to move.
func TestImagesGolden(t *testing.T) {
	var sb strings.Builder
	for _, p := range imagePrograms(t) {
		for _, rt := range tics.Runtimes() {
			for _, o0 := range []bool{true, false} {
				sb.WriteString(imageRow(p, rt, o0))
				sb.WriteByte('\n')
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "images.golden")
	if *updateImages {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestImagesGolden -update-images): %v", err)
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
