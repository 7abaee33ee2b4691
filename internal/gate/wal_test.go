package gate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// walCorpus writes nBatches batches into a never-compacting store and
// returns the directory, the raw WAL bytes, and the digest after each
// prefix of batches (digests[k] = state with the first k batches).
func walCorpus(t *testing.T, nBatches, perBatch int) (dir string, wal []byte, digests []string) {
	t.Helper()
	const fresh = 100.0
	arrivals := synthArrivals(77, nBatches*perBatch/2)
	batches := asBatches(arrivals, fresh, len(arrivals)/nBatches)
	if len(batches) < nBatches {
		t.Fatalf("corpus too small: %d batches", len(batches))
	}
	batches = batches[:nBatches]

	dir = t.TempDir()
	st := openStore(t, dir, Options{CompactLimit: -1})
	digests = []string{st.Digest()}
	for i, b := range batches {
		mustIngest(t, st, "src", uint64(i+1), b)
		digests = append(digests, st.Digest())
	}
	st.Close()

	wal, err := os.ReadFile(filepath.Join(dir, "gate.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, wal, digests
}

// recordOffsets parses the record boundaries out of a clean WAL image.
func recordOffsets(t *testing.T, wal []byte) []int64 {
	t.Helper()
	recs, good := scanRecords(wal)
	if good != int64(len(wal)) {
		t.Fatalf("corpus WAL not clean: %d/%d bytes", good, len(wal))
	}
	offs := []int64{walHdrLen}
	off := int64(walHdrLen)
	for _, r := range recs {
		off += int64(recOverhead + len(r.payload))
		offs = append(offs, off)
	}
	return offs
}

// reopenChopped writes a WAL image into a fresh directory and opens it.
func reopenChopped(t *testing.T, img []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gate.wal"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	return openStore(t, dir, Options{CompactLimit: -1})
}

// TestWALTruncatedTailEveryOffset is the exhaustive torn-tail corpus:
// the WAL chopped at EVERY byte offset inside the last record must
// recover cleanly to exactly the state before that record, digest
// included, with the torn bytes reported truncated.
func TestWALTruncatedTailEveryOffset(t *testing.T) {
	_, wal, digests := walCorpus(t, 5, 40)
	offs := recordOffsets(t, wal)
	n := len(offs) - 1 // batches in the corpus
	lastStart := offs[n-1]

	for cut := lastStart; cut < int64(len(wal)); cut++ {
		st := reopenChopped(t, wal[:cut])
		if got := st.SourceHWM("src"); got != uint64(n-1) {
			t.Fatalf("cut=%d: hwm %d, want %d", cut, got, n-1)
		}
		if got := st.Digest(); got != digests[n-1] {
			t.Fatalf("cut=%d: digest %s, want %s", cut, got, digests[n-1])
		}
		if got, want := st.Recovery().TruncatedBytes, cut-lastStart; got != want {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, got, want)
		}
		// The truncation is physical: the store keeps appending from the
		// clean prefix, so the retried batch lands durably.
		if st.WALBytes() != lastStart {
			t.Fatalf("cut=%d: wal not truncated to %d (got %d)", cut, lastStart, st.WALBytes())
		}
		st.Close()
	}
}

// TestWALTornRecordEveryOffset flips one byte at every offset of the
// last record: whether the damage hits the type, the length, the payload
// or the CRC, recovery must stop at the previous record. (Flips inside
// the 4-byte length field can also legally read as "record extends past
// EOF" — same verdict: the tail is torn.)
func TestWALTornRecordEveryOffset(t *testing.T) {
	_, wal, digests := walCorpus(t, 5, 40)
	offs := recordOffsets(t, wal)
	n := len(offs) - 1
	lastStart := offs[n-1]

	for pos := lastStart; pos < int64(len(wal)); pos++ {
		img := append([]byte(nil), wal...)
		img[pos] ^= 0x40
		st := reopenChopped(t, img)
		if got := st.SourceHWM("src"); got != uint64(n-1) {
			t.Fatalf("flip@%d: hwm %d, want %d", pos, got, n-1)
		}
		if got := st.Digest(); got != digests[n-1] {
			t.Fatalf("flip@%d: digest diverged", pos)
		}
		st.Close()
	}
}

// TestWALMidLogCorruption flips a byte inside an interior record:
// recovery keeps the clean prefix and refuses to skip past the tear
// (record boundaries after a corrupt record cannot be trusted).
func TestWALMidLogCorruption(t *testing.T) {
	_, wal, digests := walCorpus(t, 5, 40)
	offs := recordOffsets(t, wal)

	for rec := 0; rec < len(offs)-1; rec++ {
		mid := (offs[rec] + offs[rec+1]) / 2
		img := append([]byte(nil), wal...)
		img[mid] ^= 0xFF
		st := reopenChopped(t, img)
		if got := st.SourceHWM("src"); got != uint64(rec) {
			t.Fatalf("corrupt record %d: hwm %d, want %d", rec, got, rec)
		}
		if got := st.Digest(); got != digests[rec] {
			t.Fatalf("corrupt record %d: digest diverged", rec)
		}
		st.Close()
	}
}

// TestWALTornHeader covers the degenerate tears: an empty file, a
// partial header, and a header-only log all recover to an empty store.
func TestWALTornHeader(t *testing.T) {
	hdr := fileHeader()
	for _, cut := range []int{0, 1, walHdrLen - 1, walHdrLen} {
		st := reopenChopped(t, hdr[:cut])
		if st.Unique() != 0 || st.Sources() != 0 {
			t.Fatalf("cut=%d: non-empty recovery", cut)
		}
		// And the rebuilt log is usable.
		mustIngest(t, st, "src", 1, []Frame{{Dev: 1, Seq: 1}})
		st.Close()
	}
}

// TestWALBadMagic rejects a log that is whole but not ours.
func TestWALBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gate.wal"), []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

// TestSnapshotRoundTrip pins the snapshot codec.
func TestSnapshotRoundTrip(t *testing.T) {
	frames := []Frame{
		{Dev: 3, Seq: 9, Value: 90, SentMs: 1.5, DeviceMs: 1, ArriveMs: 7.25, Attempt: 1, Echo: true, FreshMs: 100},
		{Dev: 0, Seq: 0, Value: 0, SentMs: 0, ArriveMs: 0.125},
	}
	sources := map[string]uint64{"a": 4, "b": 17}
	arr, src, best, err := decodeSnapshot(encodeSnapshot(42, sources, frames))
	if err != nil {
		t.Fatal(err)
	}
	if arr != 42 || len(src) != 2 || src["a"] != 4 || src["b"] != 17 {
		t.Fatalf("decoded arrivals=%d sources=%v", arr, src)
	}
	if len(best) != 2 || best[0] != frames[0] || best[1] != frames[1] {
		t.Fatalf("frames round-trip: %+v", best)
	}
	// Trailing garbage must be rejected, not ignored.
	if _, _, _, err := decodeSnapshot(append(encodeSnapshot(1, nil, nil), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// The encoders the store used before it wrote records in place: each
// payload built in its own buffer, then copied into a framed record.
// TestRecordsMatchCopyingEncoders holds the in-place ones to their bytes.

func frameRecord(typ byte, payload []byte) []byte {
	rec := make([]byte, 0, recOverhead+len(payload))
	rec = append(rec, typ)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.Checksum(rec[:5+len(payload)], crcTable)
	return binary.LittleEndian.AppendUint32(rec, crc)
}

func encodeBatch(source string, batch uint64, frames []Frame) []byte {
	b := make([]byte, 0, 2+len(source)+8+4+len(frames)*frameLen)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(source)))
	b = append(b, source...)
	b = appendU64(b, batch)
	b = appendU32(b, uint32(len(frames)))
	for _, f := range frames {
		b = appendFrame(b, f)
	}
	return b
}

func encodeSnapshot(arrivals int64, sources map[string]uint64, best []Frame) []byte {
	b := make([]byte, 0, 8+4+len(sources)*16+4+len(best)*frameLen)
	b = appendU64(b, uint64(arrivals))
	b = appendU32(b, uint32(len(sources)))
	for _, src := range sortedSourceKeys(sources) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(src)))
		b = append(b, src...)
		b = appendU64(b, sources[src])
	}
	b = appendU32(b, uint32(len(best)))
	for _, f := range best {
		b = appendFrame(b, f)
	}
	return b
}

// TestRecordsMatchCopyingEncoders: for the same store, gate.wal and
// gate.snap hold exactly the bytes the copying encoders produce. The
// reference snapshot lists the first arrival of each (device, seq) of
// the globally sorted stream, so it does not lean on the gateway core.
func TestRecordsMatchCopyingEncoders(t *testing.T) {
	const fresh = 100.0
	arrivals := synthArrivals(41, 300)
	batches := asBatches(arrivals, fresh, 37)
	dir := t.TempDir()
	st := openStore(t, dir, Options{CompactLimit: -1})
	defer st.Close()
	wantWAL := fileHeader()
	for i, b := range batches {
		src := []string{"alpha", "b"}[i%2]
		mustIngest(t, st, src, uint64(i/2+1), b)
		if i%3 == 0 {
			st.Digest() // the snapshot then walks an order kept across reads
		}
		wantWAL = append(wantWAL, frameRecord(recBatch, encodeBatch(src, uint64(i/2+1), b))...)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "gate.wal")); err != nil || !bytes.Equal(got, wantWAL) {
		t.Fatalf("gate.wal differs from the copying encoder's bytes (err %v)", err)
	}

	sorted := append([]fleet.Arrival(nil), arrivals...)
	fleet.SortArrivals(sorted)
	var best []Frame
	seen := map[[2]int64]bool{}
	for _, a := range sorted {
		if k := [2]int64{int64(a.Dev), a.Seq}; !seen[k] {
			seen[k] = true
			best = append(best, FrameFromArrival(a, fresh))
		}
	}
	sources := map[string]uint64{"alpha": uint64((len(batches) + 1) / 2), "b": uint64(len(batches) / 2)}
	wantSnap := append(fileHeader(), frameRecord(recSnapshot, encodeSnapshot(int64(len(arrivals)), sources, best))...)
	if rec := st.snapshotRecord(); len(rec) != cap(rec) {
		t.Fatalf("snapshot record is %d bytes in a %d-byte buffer: the size estimate is off", len(rec), cap(rec))
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "gate.snap")); err != nil || !bytes.Equal(got, wantSnap) {
		t.Fatalf("gate.snap (%d bytes) differs from the copying encoder's %d bytes (err %v)", len(got), len(wantSnap), err)
	}
}
