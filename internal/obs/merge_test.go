package obs

import (
	"strings"
	"testing"
)

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry()
	a.Add("commits", 3)
	a.SetGauge("ratio", 0.5)
	a.RegisterHistogram("lat", []float64{10, 100})
	a.Observe("lat", 5)
	a.Observe("lat", 50)

	b := NewRegistry()
	b.Add("commits", 4)
	b.Inc("restores")
	b.SetGauge("ratio", 0.25)
	b.RegisterHistogram("lat", []float64{10, 100})
	b.Observe("lat", 500)
	b.RegisterHistogram("undo", []float64{8})
	b.Observe("undo", 2)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Counter("commits"); got != 7 {
		t.Fatalf("commits = %d, want 7", got)
	}
	if got := a.Counter("restores"); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
	if got := a.Gauge("ratio"); got != 0.75 {
		t.Fatalf("ratio = %g, want 0.75", got)
	}
	lat := a.Histogram("lat")
	if lat.Count != 3 || lat.Sum != 555 || lat.Min != 5 || lat.Max != 500 {
		t.Fatalf("lat after merge: %+v", lat)
	}
	if lat.Counts[0] != 1 || lat.Counts[1] != 1 || lat.Counts[2] != 1 {
		t.Fatalf("lat buckets after merge: %v", lat.Counts)
	}

	// A histogram only the source had is cloned in, not aliased.
	undo := a.Histogram("undo")
	if undo == nil || undo.Count != 1 {
		t.Fatalf("undo not merged in: %+v", undo)
	}
	if undo == b.Histogram("undo") {
		t.Fatal("merged-in histogram aliases the source registry")
	}
	undo.Observe(3)
	if b.Histogram("undo").Count != 1 {
		t.Fatal("observing the merged copy mutated the source")
	}

	// The source registry is untouched by the merge.
	if b.Counter("commits") != 4 || b.Histogram("lat").Count != 1 {
		t.Fatalf("merge mutated its source: %+v", b)
	}
}

func TestRegistryMergeBoundsMismatch(t *testing.T) {
	a := NewRegistry()
	a.RegisterHistogram("lat", []float64{10, 100})
	b := NewRegistry()
	b.RegisterHistogram("lat", []float64{10, 200})
	err := a.Merge(b)
	if err == nil || !strings.Contains(err.Error(), "lat") {
		t.Fatalf("bounds mismatch not refused: %v", err)
	}

	c := NewRegistry()
	c.RegisterHistogram("lat", []float64{10})
	if err := a.Merge(c); err == nil {
		t.Fatal("bucket-count mismatch not refused")
	}
}

// TestRegistryMergeEmptySource: folding an empty registry in is a no-op.
func TestRegistryMergeEmptySource(t *testing.T) {
	a := NewRegistry()
	a.Add("commits", 3)
	a.RegisterHistogram("lat", []float64{10})
	a.Observe("lat", 5)
	before := dumpString(t, a)
	if err := a.Merge(NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if after := dumpString(t, a); after != before {
		t.Fatalf("empty merge changed the registry:\n%s\nvs\n%s", before, after)
	}
}

// TestRegistryMergeSelf: merging a registry into itself exactly doubles
// every counter, gauge, and histogram count — and must not deadlock or
// corrupt bucket slices mid-iteration.
func TestRegistryMergeSelf(t *testing.T) {
	a := NewRegistry()
	a.Add("commits", 3)
	a.SetGauge("ratio", 0.5)
	a.RegisterHistogram("lat", []float64{10, 100})
	a.Observe("lat", 5)
	a.Observe("lat", 50)
	if err := a.Merge(a); err != nil {
		t.Fatal(err)
	}
	if a.Counter("commits") != 6 {
		t.Fatalf("commits = %d, want 6", a.Counter("commits"))
	}
	if a.Gauge("ratio") != 1 {
		t.Fatalf("ratio = %g, want 1", a.Gauge("ratio"))
	}
	lat := a.Histogram("lat")
	if lat.Count != 4 || lat.Sum != 110 || lat.Counts[0] != 2 || lat.Counts[1] != 2 {
		t.Fatalf("lat after self-merge: %+v counts %v", lat, lat.Counts)
	}
}

// TestRegistryMergeOrderIndependence: the fleet folds per-device
// registries in index order, but the result must not depend on that
// order — counters and histogram buckets are commutative sums.
func TestRegistryMergeOrderIndependence(t *testing.T) {
	mk := func(seed int64) *Registry {
		r := NewRegistry()
		r.Add("commits", seed)
		r.Inc("boots")
		r.RegisterHistogram("lat", []float64{10, 100})
		r.Observe("lat", float64(seed))
		return r
	}
	srcs := []*Registry{mk(3), mk(47), mk(500)}

	fold := func(order ...int) string {
		acc := NewRegistry()
		for _, i := range order {
			if err := acc.Merge(srcs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return dumpString(t, acc)
	}
	want := fold(0, 1, 2)
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := fold(order...); got != want {
			t.Fatalf("merge order %v changed the fold:\n%s\nvs\n%s", order, got, want)
		}
	}
}

func dumpString(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
