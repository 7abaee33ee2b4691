// Package gate is the standalone gateway service: the fleet's
// exactly-once dedup/freshness sink promoted from an in-process pass to
// a long-running HTTP server (cmd/ticsgate) that survives its own power
// failures the way the paper's devices survive theirs. Devices prove
// exactly-once across reboots with an NV send-sequence shadow; the
// gateway proves it across process kills with a durable write-ahead log:
// every ingested batch is CRC-framed, appended and fsynced before it is
// acknowledged, so a SIGKILL at any byte boundary loses nothing that was
// acked and re-delivers nothing that was applied.
//
// The store's dedup state is the in-process fleet.Gateway core, which
// is order-independent: for every (device, seq) it retains the
// fleet.ArrivalBefore-minimal arrival, so the delivery log, stats,
// latency quantiles and SHA-256 digest it reports are a pure function of
// the *set* of ingested frames — equal to an in-process run, no matter
// how HTTP batches interleave, retry, or replay across crashes.
package gate

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// WAL file framing. Both the log (gate.wal) and the snapshot
// (gate.snap) use the same container: an 8-byte header (magic +
// version), then records of
//
//	[type u8][payload len u32 LE][payload][CRC32-C u32 LE]
//
// with the CRC covering type+len+payload. A record is only meaningful
// if it is whole and its CRC matches; recovery stops at the first
// violation and truncates the log there (the torn tail is, by the fsync
// ordering, bytes that were never acknowledged).
const (
	walMagic   = "TGWL"
	walVersion = 1
	walHdrLen  = 8 // magic(4) + version u32

	recBatch    = byte(1) // one acknowledged ingest batch
	recSnapshot = byte(2) // full store state (snapshot file only)

	recOverhead = 1 + 4 + 4 // type + len + crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fileHeader renders the 8-byte container header.
func fileHeader() []byte {
	h := make([]byte, walHdrLen)
	copy(h, walMagic)
	binary.LittleEndian.PutUint32(h[4:], walVersion)
	return h
}

// checkHeader validates a container header.
func checkHeader(b []byte) error {
	if len(b) < walHdrLen {
		return fmt.Errorf("gate: file shorter than header (%d bytes)", len(b))
	}
	if string(b[:4]) != walMagic {
		return fmt.Errorf("gate: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != walVersion {
		return fmt.Errorf("gate: wal version %d, this build understands %d", v, walVersion)
	}
	return nil
}

// appendRecord appends one framed record to b: the type, the length of
// the payload body appends, the payload itself and the CRC over all
// three. The payload is written in place, so a record costs one buffer.
func appendRecord(b []byte, typ byte, body func([]byte) []byte) []byte {
	start := len(b)
	b = body(append(b, typ, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(b[start+1:], uint32(len(b)-start-5))
	return appendU32(b, crc32.Checksum(b[start:], crcTable))
}

// record is one decoded WAL record.
type record struct {
	typ     byte
	payload []byte
}

// scanRecords walks the byte stream after the header and returns every
// whole, CRC-valid record plus the offset (from the start of b) where
// the clean prefix ends. Anything past that offset — a short header, a
// truncated length, a half-written payload, a CRC mismatch — is the
// torn tail of a crash and must be truncated away, never skipped over:
// record boundaries downstream of a tear cannot be trusted.
func scanRecords(b []byte) (recs []record, good int64) {
	off := int64(walHdrLen)
	if int64(len(b)) < off {
		return nil, int64(len(b))
	}
	for {
		rest := b[off:]
		if len(rest) < 5 { // type + len don't fit
			return recs, off
		}
		plen := int64(binary.LittleEndian.Uint32(rest[1:5]))
		total := 5 + plen + 4
		if int64(len(rest)) < total {
			return recs, off
		}
		want := binary.LittleEndian.Uint32(rest[5+plen : total])
		if crc32.Checksum(rest[:5+plen], crcTable) != want {
			return recs, off
		}
		recs = append(recs, record{typ: rest[0], payload: rest[5 : 5+plen]})
		off += total
	}
}

// Binary scalar helpers (little endian throughout).

func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("gate: record payload truncated at offset %d (want %d more bytes of %d)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *binReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *binReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *binReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *binReader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *binReader) str16() string { return string(r.take(int(r.u16()))) }

// done errors unless the payload was consumed exactly.
func (r *binReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("gate: record payload has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// Frame encoding: the fixed 53-byte wire form of one arrival inside a
// batch or snapshot payload.

const frameLen = 4 + 8 + 4 + 8 + 8 + 8 + 4 + 1 + 8

func appendFrame(b []byte, f Frame) []byte {
	b = appendU32(b, uint32(f.Dev))
	b = appendU64(b, uint64(f.Seq))
	b = appendU32(b, uint32(f.Value))
	b = appendF64(b, f.SentMs)
	b = appendU64(b, uint64(f.DeviceMs))
	b = appendF64(b, f.ArriveMs)
	b = appendU32(b, uint32(f.Attempt))
	echo := byte(0)
	if f.Echo {
		echo = 1
	}
	b = append(b, echo)
	return appendF64(b, f.FreshMs)
}

func (r *binReader) frame() Frame {
	return Frame{
		Dev:      int(int32(r.u32())),
		Seq:      int64(r.u64()),
		Value:    int32(r.u32()),
		SentMs:   r.f64(),
		DeviceMs: int64(r.u64()),
		ArriveMs: r.f64(),
		Attempt:  int(int32(r.u32())),
		Echo:     r.u8() != 0,
		FreshMs:  r.f64(),
	}
}

// Batch payload: [source str16][batch u64][count u32][count × frame].

func batchLen(source string, frames int) int { return 2 + len(source) + 8 + 4 + frames*frameLen }

func appendBatch(b []byte, source string, batch uint64, frames []Frame) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(source)))
	b = append(b, source...)
	b = appendU64(b, batch)
	b = appendU32(b, uint32(len(frames)))
	for _, f := range frames {
		b = appendFrame(b, f)
	}
	return b
}

func decodeBatch(payload []byte) (source string, batch uint64, frames []Frame, err error) {
	r := &binReader{b: payload}
	source = r.str16()
	batch = r.u64()
	n := int(r.u32())
	if r.err == nil && n > (len(payload)-r.off)/frameLen+1 {
		return "", 0, nil, fmt.Errorf("gate: batch claims %d frames in %d payload bytes", n, len(payload))
	}
	frames = make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		frames = append(frames, r.frame())
	}
	if err = r.done(); err != nil {
		return "", 0, nil, err
	}
	return source, batch, frames, nil
}

// Snapshot payload: [arrivals u64][nsources u32][nsources × (source
// str16, hwm u64)][nbest u32][nbest × frame]. The (device, seq) key of
// each retained frame rides inside the frame itself.

func snapshotLen(sources map[string]uint64, best int) int {
	n := 8 + 4 + 4 + best*frameLen
	for src := range sources {
		n += 2 + len(src) + 8
	}
	return n
}

// appendSnapshotHead appends everything of a snapshot payload before its
// nbest frames, which the caller appends next.
func appendSnapshotHead(b []byte, arrivals int64, sources map[string]uint64, nbest int) []byte {
	b = appendU64(b, uint64(arrivals))
	b = appendU32(b, uint32(len(sources)))
	for _, src := range sortedSourceKeys(sources) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(src)))
		b = append(b, src...)
		b = appendU64(b, sources[src])
	}
	return appendU32(b, uint32(nbest))
}

func decodeSnapshot(payload []byte) (arrivals int64, sources map[string]uint64, best []Frame, err error) {
	r := &binReader{b: payload}
	arrivals = int64(r.u64())
	ns := int(r.u32())
	sources = make(map[string]uint64, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		src := r.str16()
		sources[src] = r.u64()
	}
	nb := int(r.u32())
	if r.err == nil && nb > (len(payload)-r.off)/frameLen+1 {
		return 0, nil, nil, fmt.Errorf("gate: snapshot claims %d frames in %d payload bytes", nb, len(payload))
	}
	best = make([]Frame, 0, nb)
	for i := 0; i < nb; i++ {
		best = append(best, r.frame())
	}
	if err = r.done(); err != nil {
		return 0, nil, nil, err
	}
	return arrivals, sources, best, nil
}
