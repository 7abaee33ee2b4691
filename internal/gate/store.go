package gate

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fleet"
)

// Frame is one channel arrival on the wire: what a fleet wave POSTs to
// /v1/ingest and what the WAL persists. It carries everything the
// in-process gateway reads off a fleet.Arrival, plus the freshness
// budget the sender wants enforced — per frame, so one gateway can
// serve fleets with different @expires_after deadlines.
type Frame struct {
	Dev      int     `json:"dev"`
	Seq      int64   `json:"seq"`
	Value    int32   `json:"value"`
	SentMs   float64 `json:"sent_ms"`
	DeviceMs int64   `json:"device_ms"`
	ArriveMs float64 `json:"arrive_ms"`
	Attempt  int     `json:"attempt"`
	Echo     bool    `json:"echo,omitempty"`
	FreshMs  float64 `json:"fresh_ms,omitempty"` // freshness budget (0 = none)
}

// arrival converts the wire frame back to the fleet's arrival shape.
func (f Frame) arrival() fleet.Arrival {
	return fleet.Arrival{
		Dev: f.Dev, Seq: f.Seq, Value: f.Value,
		SentMs: f.SentMs, DeviceMs: f.DeviceMs, ArriveMs: f.ArriveMs,
		Attempt: f.Attempt, Echo: f.Echo,
	}
}

// FrameFromArrival wraps a fleet arrival for the wire.
func FrameFromArrival(a fleet.Arrival, freshMs float64) Frame {
	return Frame{
		Dev: a.Dev, Seq: a.Seq, Value: a.Value,
		SentMs: a.SentMs, DeviceMs: a.DeviceMs, ArriveMs: a.ArriveMs,
		Attempt: a.Attempt, Echo: a.Echo, FreshMs: freshMs,
	}
}

// ErrBatchGap is returned when a source skips ahead in its batch
// numbering: batch b landed while the high-water mark was h < b-1. The
// fleet client sends batches serially, so a gap means frames were lost
// upstream of the WAL — refusing loudly beats silently under-counting.
var ErrBatchGap = errors.New("gate: batch sequence gap")

// DefaultCompactLimit is the WAL size that triggers snapshot
// compaction when Options.CompactLimit is zero.
const DefaultCompactLimit = 4 << 20

// Options configures a store.
type Options struct {
	// CompactLimit is the WAL byte size past which Ingest folds the
	// whole state into gate.snap and resets the log (0 = the 4 MiB
	// DefaultCompactLimit; negative = never compact, the setting the
	// byte-chop recovery corpus uses to keep the log inspectable).
	CompactLimit int64
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	Snapshot       bool    `json:"snapshot"`        // a gate.snap was loaded
	Batches        int     `json:"batches"`         // WAL batch records replayed
	ReplayedFrames int     `json:"replayed_frames"` // frames inside them
	TruncatedBytes int64   `json:"truncated_bytes"` // torn tail removed from the WAL
	DurationMs     float64 `json:"duration_ms"`
}

// Store is the gateway's durable state: the in-process gateway core
// (order-independent (device, seq) dedup and freshness accounting, each
// frame judged against its own budget) behind exactly-once batch ingest
// over an fsync-on-batch WAL — everything reconstructible from disk at
// any kill point. Not safe for concurrent use; the HTTP server
// serializes.
type Store struct {
	dir string
	wal *os.File

	walBytes     int64
	compactLimit int64
	fsyncs       int64
	snapshots    int64
	recovery     RecoveryInfo

	core    *fleet.Gateway    // dedup and freshness over every applied frame
	sources map[string]uint64 // per-source applied-batch high-water mark
}

func (s *Store) walPath() string  { return filepath.Join(s.dir, "gate.wal") }
func (s *Store) snapPath() string { return filepath.Join(s.dir, "gate.snap") }

// Open loads (or initializes) a store rooted at dir, recovering state
// from gate.snap + gate.wal: the snapshot is authoritative for
// everything compacted away, and the WAL replays on top of it through
// the same idempotent batch path Ingest uses — so a WAL that overlaps
// the snapshot (the crash window between snapshot rename and log reset)
// re-applies nothing. A torn tail is truncated to the last whole,
// CRC-valid record; by the fsync-before-ack ordering those bytes were
// never acknowledged, so dropping them cannot lose an acked batch.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:          dir,
		compactLimit: opts.CompactLimit,
		core:         fleet.NewGateway(0),
		sources:      make(map[string]uint64),
	}
	if s.compactLimit == 0 {
		s.compactLimit = DefaultCompactLimit
	}

	if snap, err := os.ReadFile(s.snapPath()); err == nil {
		if err := s.loadSnapshot(snap); err != nil {
			return nil, err
		}
		s.recovery.Snapshot = true
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.recovery.DurationMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return s, nil
}

// loadSnapshot applies a gate.snap image. Snapshots are written to a
// temp file and renamed into place, so a readable gate.snap is either
// whole or absent; any framing damage here is real corruption and
// fails the open rather than guessing.
func (s *Store) loadSnapshot(b []byte) error {
	if err := checkHeader(b); err != nil {
		return fmt.Errorf("gate: snapshot: %w", err)
	}
	recs, good := scanRecords(b)
	if len(recs) != 1 || good != int64(len(b)) || recs[0].typ != recSnapshot {
		return fmt.Errorf("gate: snapshot corrupt (%d records, %d/%d clean bytes)", len(recs), good, len(b))
	}
	arrivals, sources, best, err := decodeSnapshot(recs[0].payload)
	if err != nil {
		return fmt.Errorf("gate: snapshot: %w", err)
	}
	s.sources = sources
	for _, f := range best {
		s.core.AcceptWithin(f.arrival(), f.FreshMs)
	}
	s.core.AddDuplicates(arrivals - int64(len(best)))
	return nil
}

// openWAL scans gate.wal, truncates any torn tail, replays the clean
// records, and leaves the file open for append.
func (s *Store) openWAL() error {
	path := s.walPath()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s.resetWAL()
	}
	if err != nil {
		return err
	}
	if len(b) >= walHdrLen {
		if err := checkHeader(b); err != nil {
			return err
		}
	}
	recs, good := scanRecords(b)
	if good < walHdrLen {
		// The header itself is torn: the only acknowledged state a WAL
		// this short can represent is "empty", so rebuild it.
		s.recovery.TruncatedBytes = int64(len(b))
		return s.resetWAL()
	}
	for _, rec := range recs {
		if rec.typ != recBatch {
			return fmt.Errorf("gate: unexpected record type %d in WAL", rec.typ)
		}
		source, batch, frames, err := decodeBatch(rec.payload)
		if err != nil {
			return err
		}
		// Same idempotent path as live ingest: a batch the snapshot
		// already covers replays as a no-op.
		if batch <= s.sources[source] {
			continue
		}
		if batch != s.sources[source]+1 {
			return fmt.Errorf("%w: source %q batch %d after high-water mark %d (WAL replay)",
				ErrBatchGap, source, batch, s.sources[source])
		}
		s.apply(source, batch, frames)
		s.recovery.Batches++
		s.recovery.ReplayedFrames += len(frames)
	}
	s.recovery.TruncatedBytes = int64(len(b)) - good

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if good < int64(len(b)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.walBytes = good
	return nil
}

// resetWAL replaces gate.wal with a fresh header-only log, atomically
// (write temp, fsync, rename, fsync dir) so a crash mid-reset leaves
// either the old log or a whole new one.
func (s *Store) resetWAL() error {
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	path := s.walPath()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fileHeader()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.walBytes = walHdrLen
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// apply folds one batch into memory. Callers have already deduplicated
// by batch sequence and made the record durable.
func (s *Store) apply(source string, batch uint64, frames []Frame) {
	for _, f := range frames {
		s.core.AcceptWithin(f.arrival(), f.FreshMs)
	}
	s.sources[source] = batch
}

// Ingest applies one batch exactly once. Batches from a source must be
// numbered 1, 2, 3, … in order; a batch at or below the source's
// high-water mark is an idempotent replay (applied=false, nil error) —
// the retry path after a lost HTTP response or a crash-recovered WAL —
// and a gap returns ErrBatchGap. The record is appended and fsynced
// BEFORE it is applied or acknowledged: a kill after the fsync
// re-applies it on recovery, a kill before it leaves no trace, and
// either way the client's retry resolves to exactly one application. A
// frame whose Dev or Attempt does not fit the WAL's 32-bit fields is
// refused before anything is written.
func (s *Store) Ingest(source string, batch uint64, frames []Frame) (applied bool, err error) {
	if source == "" || len(source) > 0xFFFF {
		return false, fmt.Errorf("gate: bad source %q", source)
	}
	if batch == 0 {
		return false, fmt.Errorf("gate: batch numbering starts at 1")
	}
	for i, f := range frames {
		// The WAL stores Dev and Attempt as 32-bit words; a wider value
		// would be applied now and replay as a different frame.
		if f.Dev != int(int32(f.Dev)) || f.Attempt != int(int32(f.Attempt)) {
			return false, fmt.Errorf("gate: frame %d: dev %d, attempt %d: outside the 32-bit range the WAL stores", i, f.Dev, f.Attempt)
		}
	}
	hwm := s.sources[source]
	if batch <= hwm {
		return false, nil
	}
	if batch != hwm+1 {
		return false, fmt.Errorf("%w: source %q batch %d after high-water mark %d", ErrBatchGap, source, batch, hwm)
	}

	rec := appendRecord(make([]byte, 0, recOverhead+batchLen(source, len(frames))), recBatch, func(b []byte) []byte {
		return appendBatch(b, source, batch, frames)
	})
	if _, err := s.wal.Write(rec); err != nil {
		return false, fmt.Errorf("gate: wal append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return false, fmt.Errorf("gate: wal fsync: %w", err)
	}
	s.fsyncs++
	s.walBytes += int64(len(rec))
	s.apply(source, batch, frames)

	if s.compactLimit > 0 && s.walBytes > s.compactLimit {
		if err := s.Compact(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Compact folds the entire store state into gate.snap and resets the
// WAL. Ordering is the crash-safety argument: (1) snapshot to temp,
// fsync, rename over gate.snap, fsync dir — atomic replace; (2) reset
// gate.wal the same way. A kill between (1) and (2) leaves the new
// snapshot plus the old WAL, whose every batch is at or below the
// snapshot's high-water marks and therefore replays as a no-op.
func (s *Store) Compact() error {
	rec := s.snapshotRecord()
	tmp := s.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fileHeader()); err == nil {
		_, err = f.Write(rec)
		if err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("gate: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.resetWAL(); err != nil {
		return err
	}
	s.snapshots++
	return nil
}

// snapshotRecord renders the whole store state as one snapshot record:
// each retained frame, in ArrivalBefore order, goes straight into the
// record buffer, sized up front.
func (s *Store) snapshotRecord() []byte {
	n := s.core.Unique()
	b := make([]byte, 0, recOverhead+snapshotLen(s.sources, n))
	return appendRecord(b, recSnapshot, func(b []byte) []byte {
		b = appendSnapshotHead(b, s.core.Stats().Arrivals, s.sources, n)
		s.core.Retained(func(a fleet.Arrival, freshMs float64) {
			b = appendFrame(b, FrameFromArrival(a, freshMs))
		})
		return b
	})
}

// Close fsyncs and closes the WAL. The store must not be used after.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

func sortedSourceKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Digest is the SHA-256 over the delivery log, rendered by the same
// fleet.Gateway.Digest as the in-process gateway — the byte-comparable
// exactly-once witness across process boundaries and crashes.
func (s *Store) Digest() string { return s.core.Digest() }

// Stats returns the gateway counters over the durable state.
func (s *Store) Stats() fleet.GatewayStats { return s.core.Stats() }

// Unique returns how many distinct (device, seq) packets arrived.
func (s *Store) Unique() int { return s.core.Unique() }

// Summary bundles the remote-gateway accounting a finalizing fleet
// needs — the exact fields fleet.Run fills from its in-process gateway.
func (s *Store) Summary() fleet.RemoteSummary { return s.core.Summary() }

// WALBytes is the current log size (header included).
func (s *Store) WALBytes() int64 { return s.walBytes }

// Fsyncs counts batch fsyncs since open.
func (s *Store) Fsyncs() int64 { return s.fsyncs }

// Snapshots counts compactions since open.
func (s *Store) Snapshots() int64 { return s.snapshots }

// Sources returns the number of distinct ingest sources seen.
func (s *Store) Sources() int { return len(s.sources) }

// SourceHWM returns a source's applied-batch high-water mark.
func (s *Store) SourceHWM(source string) uint64 { return s.sources[source] }

// Recovery describes what Open reconstructed from disk.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }
