package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/replay"
)

// TestCPUProfile: -cpuprofile writes a non-empty pprof profile of the
// sweep — a gzipped protobuf whose top level decodes field by field and
// whose string table names the cpu/nanoseconds sample type.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	if code := run([]string{"-app", "bc", "-max-schedules", "40", "-wall", "50", "-seed", "1", "-cpuprofile", path}); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	strs, err := profileStrings(pb)
	if err != nil {
		t.Fatalf("profile does not parse: %v", err)
	}
	for _, want := range []string{"cpu", "nanoseconds"} {
		if !slices.Contains(strs, want) {
			t.Fatalf("profile string table %q lacks %q", strs, want)
		}
	}
}

// profileStrings walks the top-level fields of a profile.proto message
// and returns its string table (field 6). Every field must decode with
// a known wire type and stay in bounds.
func profileStrings(b []byte) ([]string, error) {
	if len(b) == 0 {
		return nil, errors.New("empty profile")
	}
	var strs []string
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field tag")
		}
		b = b[n:]
		switch tag & 7 {
		case 0:
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if tag&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return nil, errors.New("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("truncated length-delimited field")
			}
			if tag>>3 == 6 {
				strs = append(strs, string(b[n:n+int(l)]))
			}
			b = b[n+int(l):]
		default:
			return nil, errors.New("unknown wire type")
		}
	}
	return strs, nil
}

// TestCrossCheckGolden: the -crosscheck report over the seeded corpus —
// every static diagnostic next to the stale-send, effect-loss, fault or
// rollback counterexample that grounds it — is byte-identical to
// testdata/mc/crosscheck.golden.
func TestCrossCheckGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/mc/crosscheck.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out := runCaptured(t, "-crosscheck", "../../testdata/vet/seeded", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("crosscheck output differs from testdata/mc/crosscheck.golden:\n%s", out)
	}
}

// TestOutNamesTheReplayCommand: -out writes a counterexample manifest
// and tells the user the command that replays it, and that manifest
// re-verifies.
func TestOutNamesTheReplayCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cx.json")
	code, out := runCaptured(t, "-runtime", "plain", "-max-schedules", "30", "-out", path, "../../testdata/vet/seeded/war.c")
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (a counterexample):\n%s", code, out)
	}
	if want := "(replay with ticsrun -replay " + path + ")"; !strings.Contains(string(out), want) {
		t.Fatalf("output does not say %q:\n%s", want, out)
	}
	man, err := replay.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := replay.Replay(man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.VerifyReplay(man, again); err != nil {
		t.Fatal(err)
	}
}

// runCaptured runs the command with args and returns its exit status
// and everything it wrote to stdout.
func runCaptured(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	code := run(args)
	os.Stdout = stdout
	w.Close()
	return code, <-got
}
