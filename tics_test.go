package tics_test

import (
	"strings"
	"testing"

	tics "repro"
	"repro/internal/apps"
)

func TestRuntimesList(t *testing.T) {
	kinds := tics.Runtimes()
	if len(kinds) != 8 {
		t.Fatalf("%d runtimes", len(kinds))
	}
	seen := map[tics.RuntimeKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate runtime %s", k)
		}
		seen[k] = true
	}
	if !seen[tics.RTTICS] || !seen[tics.RTPlain] {
		t.Fatalf("missing core kinds: %v", kinds)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := tics.Build("int main() { return 0; }", tics.BuildOptions{Runtime: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown runtime") {
		t.Fatalf("unknown runtime: %v", err)
	}
	if _, err := tics.Build("not a program", tics.BuildOptions{}); err == nil {
		t.Fatal("garbage source accepted")
	}
	// Task runtimes without a task list.
	if _, err := tics.Build("int main() { return 0; }", tics.BuildOptions{Runtime: tics.RTAlpaca}); err == nil {
		// Build defers to NewMachine for some task validation; either must fail.
		img, _ := tics.Build("int main() { return 0; }", tics.BuildOptions{Runtime: tics.RTAlpaca})
		if _, err2 := tics.NewMachine(img, tics.RunOptions{}); err2 == nil {
			t.Fatal("task runtime without tasks accepted")
		}
	}
	// Segment below the program minimum.
	src := apps.BC().Source
	if _, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS, SegmentBytes: 8}); err == nil {
		img, _ := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS, SegmentBytes: 8})
		if _, err2 := tics.NewMachine(img, tics.RunOptions{}); err2 == nil {
			t.Fatal("undersized segment accepted")
		}
	}
	// Bad undo block size.
	img, err := tics.Build(src, tics.BuildOptions{Runtime: tics.RTTICS, UndoBlockBytes: 7})
	if err == nil {
		if _, err2 := tics.NewMachine(img, tics.RunOptions{}); err2 == nil {
			t.Fatal("non-power-of-two undo block accepted")
		}
	}
}

func TestO0(t *testing.T) {
	base := tics.BuildOptions{Runtime: tics.RTTICS}
	o0 := base
	o0.O0 = true
	imgBase, err := tics.Build(apps.CF().Source, base)
	if err != nil {
		t.Fatal(err)
	}
	imgO0, err := tics.Build(apps.CF().Source, o0)
	if err != nil {
		t.Fatal(err)
	}
	if imgO0.Sect.Text <= imgBase.Sect.Text {
		t.Fatalf("O0 text (%d) should exceed O2 text (%d)", imgO0.Sect.Text, imgBase.Sect.Text)
	}
}

func TestCompileFacade(t *testing.T) {
	prog, err := tics.Compile(apps.Swap().Source)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.UsesPointers {
		t.Fatal("swap should use pointers")
	}
	if prog.MinSegmentBytes() <= 0 {
		t.Fatal("segment floor")
	}
}

func TestAppRegistry(t *testing.T) {
	names := []string{"ar", "bc", "cf", "ghm", "ghm-tinyos", "swap", "bubble", "timekeeping"}
	for _, n := range names {
		app, ok := apps.ByName(n)
		if !ok {
			t.Fatalf("missing app %s", n)
		}
		if app.Source == "" {
			t.Fatalf("%s has no source", n)
		}
		if _, err := tics.Compile(app.Source); err != nil {
			t.Fatalf("%s does not compile: %v", n, err)
		}
	}
	if _, ok := apps.ByName("nope"); ok {
		t.Fatal("unknown app found")
	}
	if len(apps.All()) != 5 {
		t.Fatalf("benchmark registry: %d", len(apps.All()))
	}
	// The no-recursion BC variant must genuinely differ and drop recursion.
	norec := apps.BCNoRecursion()
	if norec.Source == apps.BC().Source {
		t.Fatal("bc-norec equals bc")
	}
	prog, err := tics.Compile(norec.Source)
	if err != nil {
		t.Fatal(err)
	}
	if prog.HasRecursion {
		t.Fatal("bc-norec still recursive")
	}
}
