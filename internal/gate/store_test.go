package gate

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fleet"
)

// synthArrivals builds a deterministic arrival stream with duplicates
// (retransmits and echoes) and a spread of latencies, some past the
// freshness deadline used by the tests.
func synthArrivals(seed int64, n int) []fleet.Arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []fleet.Arrival
	for i := 0; i < n; i++ {
		dev := rng.Intn(7)
		seq := int64(rng.Intn(40))
		sent := float64(i) * 3.5
		copies := 1 + rng.Intn(3)
		for c := 0; c < copies; c++ {
			out = append(out, fleet.Arrival{
				Dev:      dev,
				Seq:      seq,
				Value:    int32(seq * 10),
				SentMs:   sent,
				DeviceMs: int64(sent),
				ArriveMs: sent + 2 + rng.Float64()*150, // some blow a 100ms budget
				Attempt:  c,
				Echo:     c > 0 && rng.Intn(4) == 0,
			})
		}
	}
	return out
}

// asBatches slices arrivals into batches of the given size, converted to
// wire frames.
func asBatches(arrivals []fleet.Arrival, freshMs float64, size int) [][]Frame {
	var batches [][]Frame
	for i := 0; i < len(arrivals); i += size {
		end := i + size
		if end > len(arrivals) {
			end = len(arrivals)
		}
		var b []Frame
		for _, a := range arrivals[i:end] {
			b = append(b, FrameFromArrival(a, freshMs))
		}
		batches = append(batches, b)
	}
	return batches
}

// refGateway runs the in-process gateway over the globally sorted
// stream — the ground truth every store result must match.
func refGateway(arrivals []fleet.Arrival, freshMs float64) *fleet.Gateway {
	sorted := append([]fleet.Arrival(nil), arrivals...)
	fleet.SortArrivals(sorted)
	gw := fleet.NewGateway(freshMs)
	for _, a := range sorted {
		gw.Accept(a)
	}
	return gw
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

func mustIngest(t *testing.T, st *Store, source string, batch uint64, frames []Frame) bool {
	t.Helper()
	applied, err := st.Ingest(source, batch, frames)
	if err != nil {
		t.Fatalf("Ingest(%s, %d): %v", source, batch, err)
	}
	return applied
}

// assertMatchesRef checks that the store's durable accounting is
// byte/bit-identical to the in-process gateway's.
func assertMatchesRef(t *testing.T, st *Store, gw *fleet.Gateway) {
	t.Helper()
	if got, want := st.Digest(), gw.Digest(); got != want {
		t.Fatalf("digest mismatch: store %s, gateway %s", got, want)
	}
	if got, want := st.Stats(), gw.Stats(); got != want {
		t.Fatalf("stats mismatch: store %+v, gateway %+v", got, want)
	}
	if got, want := st.Unique(), gw.Unique(); got != want {
		t.Fatalf("unique mismatch: store %d, gateway %d", got, want)
	}
	sum := st.Summary()
	if got, want := sum.P50Ms, gw.LatencyQuantile(0.50); got != want {
		t.Fatalf("p50 mismatch: store %g, gateway %g", got, want)
	}
	if got, want := sum.P99Ms, gw.LatencyQuantile(0.99); got != want {
		t.Fatalf("p99 mismatch: store %g, gateway %g", got, want)
	}
	if got, want := st.core.LatencyHistogram(), gw.LatencyHistogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("latency histogram mismatch (Sum included): store %+v, gateway %+v", got, want)
	}
}

// TestStoreMatchesInProcessGateway is the order-independence theorem in
// test form: the same arrival set, batched in stream order or fully
// shuffled, produces accounting identical to the in-process gateway's
// globally sorted adjudication.
func TestStoreMatchesInProcessGateway(t *testing.T) {
	const fresh = 100.0
	arrivals := synthArrivals(7, 300)
	gw := refGateway(arrivals, fresh)

	for name, order := range map[string][]fleet.Arrival{
		"stream-order": arrivals,
		"shuffled": func() []fleet.Arrival {
			s := append([]fleet.Arrival(nil), arrivals...)
			rand.New(rand.NewSource(99)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			return s
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			st := openStore(t, t.TempDir(), Options{})
			defer st.Close()
			for i, b := range asBatches(order, fresh, 37) {
				if !mustIngest(t, st, "src", uint64(i+1), b) {
					t.Fatalf("batch %d unexpectedly deduplicated", i+1)
				}
			}
			assertMatchesRef(t, st, gw)
		})
	}
}

// TestIngestIdempotenceAndGap pins the exactly-once contract: replays at
// or below the high-water mark are silent no-ops, gaps are loud errors.
func TestIngestIdempotenceAndGap(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	frames := asBatches(synthArrivals(1, 30), 0, 10)

	for i, b := range frames {
		if !mustIngest(t, st, "src", uint64(i+1), b) {
			t.Fatalf("batch %d not applied", i+1)
		}
	}
	want := st.Digest()
	arrivalsBefore := st.Stats().Arrivals

	// Replays: every already-applied batch, in any order, changes nothing.
	for _, i := range []int{2, 0, 1, 2} {
		if mustIngest(t, st, "src", uint64(i+1), frames[i]) {
			t.Fatalf("replay of batch %d reported applied", i+1)
		}
	}
	if st.Digest() != want || st.Stats().Arrivals != arrivalsBefore {
		t.Fatal("replays mutated state")
	}

	// A gap is refused and leaves no trace.
	if _, err := st.Ingest("src", uint64(len(frames)+2), frames[0]); err == nil {
		t.Fatal("batch gap accepted")
	} else if got := st.SourceHWM("src"); got != uint64(len(frames)) {
		t.Fatalf("gap moved hwm to %d", got)
	}

	// Batch 0 and empty sources are rejected up front.
	if _, err := st.Ingest("src", 0, nil); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := st.Ingest("", 1, nil); err == nil {
		t.Fatal("empty source accepted")
	}

	// A second source numbers independently.
	if !mustIngest(t, st, "other", 1, frames[0]) {
		t.Fatal("fresh source batch 1 not applied")
	}
	if st.Sources() != 2 {
		t.Fatalf("sources = %d, want 2", st.Sources())
	}
}

// TestIngestRefusesWideFrames pins the WAL round trip for frame fields
// the log stores in 32 bits: a batch with a Dev or Attempt outside int32
// is refused before the append (it would otherwise be applied under one
// id and replay under another), and the digest survives Close/Open.
func TestIngestRefusesWideFrames(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	mustIngest(t, st, "src", 1, []Frame{{Dev: 1, Seq: 1, ArriveMs: 5}})
	want := st.Digest()
	for _, f := range []Frame{
		{Dev: 1<<32 + 1, Seq: 2, ArriveMs: 6},
		{Dev: -1<<31 - 1, Seq: 2, ArriveMs: 6},
		{Dev: 2, Seq: 2, ArriveMs: 6, Attempt: 1 << 31},
	} {
		if _, err := st.Ingest("src", 2, []Frame{{Dev: 3, Seq: 1}, f}); err == nil {
			t.Fatalf("frame %+v accepted", f)
		}
	}
	if st.Digest() != want || st.SourceHWM("src") != 1 {
		t.Fatal("a refused batch changed the store")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	defer st.Close()
	if got := st.Digest(); got != want {
		t.Fatalf("digest after reopen %s, want %s", got, want)
	}
}

// TestKillAndReplayTorture kills the store (abandons it without Close —
// the in-memory state dies, the fsynced bytes survive) after every
// single batch, reopens from disk, replays the "unacknowledged" batch
// the way a retrying client would, and demands the final accounting be
// identical to a crash-free in-process run.
func TestKillAndReplayTorture(t *testing.T) {
	const fresh = 100.0
	arrivals := synthArrivals(13, 200)
	gw := refGateway(arrivals, fresh)
	batches := asBatches(arrivals, fresh, 23)
	dir := t.TempDir()

	st := openStore(t, dir, Options{})
	for i, b := range batches {
		mustIngest(t, st, "src", uint64(i+1), b)
		// SIGKILL: drop the handle on the floor. Reopen from bytes only.
		st = openStore(t, dir, Options{})
		if got := st.SourceHWM("src"); got != uint64(i+1) {
			t.Fatalf("after kill at batch %d: hwm %d", i+1, got)
		}
		// The client never saw the ack, so it retries the batch.
		if mustIngest(t, st, "src", uint64(i+1), b) {
			t.Fatalf("retry of durable batch %d applied twice", i+1)
		}
	}
	defer st.Close()
	assertMatchesRef(t, st, gw)
	if rec := st.Recovery(); rec.Batches == 0 {
		t.Fatalf("final recovery replayed no batches: %+v", rec)
	}
}

// TestCompactionPreservesState forces snapshot compactions mid-stream
// and checks the reopened store still matches the reference.
func TestCompactionPreservesState(t *testing.T) {
	const fresh = 100.0
	arrivals := synthArrivals(21, 250)
	gw := refGateway(arrivals, fresh)
	dir := t.TempDir()

	st := openStore(t, dir, Options{CompactLimit: 2048}) // tiny: compacts every few batches
	for i, b := range asBatches(arrivals, fresh, 31) {
		mustIngest(t, st, "src", uint64(i+1), b)
	}
	if st.Snapshots() == 0 {
		t.Fatal("compact limit never tripped")
	}
	assertMatchesRef(t, st, gw)
	st.Close()

	st = openStore(t, dir, Options{CompactLimit: 2048})
	defer st.Close()
	if !st.Recovery().Snapshot {
		t.Fatal("reopen did not load the snapshot")
	}
	assertMatchesRef(t, st, gw)
}

// TestCrashBetweenSnapshotAndWALReset recreates Compact's one dangerous
// window — new snapshot durable, old WAL still in place — and checks the
// idempotent replay makes it invisible.
func TestCrashBetweenSnapshotAndWALReset(t *testing.T) {
	const fresh = 100.0
	arrivals := synthArrivals(31, 150)
	gw := refGateway(arrivals, fresh)
	dir := t.TempDir()

	st := openStore(t, dir, Options{CompactLimit: -1})
	for i, b := range asBatches(arrivals, fresh, 19) {
		mustIngest(t, st, "src", uint64(i+1), b)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "gate.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: the snapshot rename happened, the WAL reset is
	// undone by restoring the full pre-compaction log.
	if err := os.WriteFile(filepath.Join(dir, "gate.wal"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{CompactLimit: -1})
	defer st2.Close()
	if !st2.Recovery().Snapshot {
		t.Fatal("snapshot not loaded")
	}
	if st2.Recovery().Batches != 0 {
		t.Fatalf("snapshot-covered WAL batches re-applied: %+v", st2.Recovery())
	}
	assertMatchesRef(t, st2, gw)
}

// TestFreshnessPerFrame checks the expiry predicate matches the gateway
// and is honored per frame.
func TestFreshnessPerFrame(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	mustIngest(t, st, "src", 1, []Frame{
		{Dev: 1, Seq: 1, SentMs: 0, ArriveMs: 50, FreshMs: 100},  // fresh
		{Dev: 1, Seq: 2, SentMs: 0, ArriveMs: 150, FreshMs: 100}, // expired
		{Dev: 1, Seq: 3, SentMs: 0, ArriveMs: 9999, FreshMs: 0},  // no budget: never expires
	})
	stats := st.Stats()
	if stats.Delivered != 2 || stats.Expired != 1 {
		t.Fatalf("stats = %+v, want 2 delivered / 1 expired", stats)
	}
	if n := len(st.core.Log()); n != 2 {
		t.Fatalf("deliveries = %d, want 2", n)
	}
}
