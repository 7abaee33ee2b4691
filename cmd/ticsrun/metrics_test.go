package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/metrics/ticsrun-bc.golden")

// TestMain lets a test run the command itself: with TICSRUN_ARGS set,
// the test binary is ticsrun with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TICSRUN_ARGS"); ok {
		os.Args = append([]string{"ticsrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMetricsDumpGolden pins the whole stdout of `ticsrun -app bc
// -metrics`: the run summary, the registry Dump and the cycle
// attribution.
func TestMetricsDumpGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TICSRUN_ARGS=-app bc -metrics")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("ticsrun -app bc -metrics: %v\n%s", err, stderr.Bytes())
	}
	const path = "../../testdata/metrics/ticsrun-bc.golden"
	if *updateMetrics {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ticsrun -app bc -metrics differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
