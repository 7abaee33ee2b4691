// BenchmarkGateIngest prices the ticsgate durable-ingest path: frames
// per second through the fsync-on-batch WAL, WAL bytes per frame, and
// how long a cold Open (recovery replay) of the produced log takes, plus
// one digest read at a fixed store state and one ingest body decode.
// The results ride in BENCH_fleet.json under "gate" (merge-by-key, same
// ledger as the fleet sweep) so `ticsbench -compare` and the validator
// gate gateway-service regressions alongside fleet throughput.
package tics_test

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fleet"
	"repro/internal/gate"
)

// gateBatchSizes mirror realistic wave sizes: a trickle, a typical
// wave, and a large fleet's wave.
var gateBatchSizes = []int{1, 64, 512}

// gateFrames builds one batch of synthetic channel arrivals.
func gateFrames(n int, batch uint64) []gate.Frame {
	frames := make([]gate.Frame, n)
	for i := range frames {
		seq := int64(batch)*int64(n) + int64(i)
		frames[i] = gate.FrameFromArrival(fleet.Arrival{
			Dev: i % 97, Seq: seq, Value: int32(seq),
			SentMs: float64(seq), ArriveMs: float64(seq) + 7.5,
		}, 500)
	}
	return frames
}

func BenchmarkGateIngest(b *testing.B) {
	results := map[string]*bench.GateEntry{}
	for _, size := range gateBatchSizes {
		b.Run(bench.GateKey(size), func(b *testing.B) {
			dir := b.TempDir()
			st, err := gate.Open(dir, gate.Options{CompactLimit: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applied, err := st.Ingest("bench", uint64(i+1), gateFrames(size, uint64(i)))
				if err != nil || !applied {
					b.Fatalf("batch %d: applied=%v err=%v", i+1, applied, err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			frames := int64(b.N) * int64(size)
			walBytes := st.WALBytes()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}

			// Recovery cost: a cold open replays everything just written.
			st2, err := gate.Open(dir, gate.Options{CompactLimit: -1})
			if err != nil {
				b.Fatal(err)
			}
			rec := st2.Recovery()
			if rec.Batches != b.N || rec.ReplayedFrames != int(frames) {
				b.Fatalf("recovery replayed %d batches / %d frames, want %d / %d",
					rec.Batches, rec.ReplayedFrames, b.N, frames)
			}
			st2.Close()

			e := &bench.GateEntry{
				BatchFrames:   size,
				Batches:       b.N,
				FramesPerSec:  float64(frames) / elapsed,
				WALBytesFrame: float64(walBytes) / float64(frames),
				RecoveryMs:    rec.DurationMs,
			}
			b.ReportMetric(e.FramesPerSec, "frames/s")
			b.ReportMetric(e.WALBytesFrame, "walB/frame")
			b.ReportMetric(e.RecoveryMs, "recovery-ms")
			results[bench.GateKey(size)] = e
		})
	}
	if len(results) != len(gateBatchSizes) {
		return // sub-benchmark filter excluded some sizes; don't write a partial table
	}
	results[bench.GateKey(bench.DigestBatchFrames)].DigestMs = gateDigestMs(b)
	results[bench.GateKey(bench.DigestBatchFrames)].DecodeUs = gateDecodeUs(b)
	err := bench.Update("BENCH_fleet.json", func(f *bench.File) error {
		for key, e := range results {
			f.SetGate(key, e)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// digestFrames makes frames [lo, hi) of the digest-read state: one
// (device, seq) each, arrival times scattered over 1000 s at full float
// precision so the frames of one read interleave with those kept from
// the last, and latencies of 0.25–19.25 ms so some miss the 15 ms
// budget.
func digestFrames(lo, hi int) []gate.Frame {
	frames := make([]gate.Frame, 0, hi-lo)
	for i := lo; i < hi; i++ {
		arrive := float64(uint64(i)*0x9E3779B97F4A7C15>>11) / (1 << 53) * 1e6
		frames = append(frames, gate.FrameFromArrival(fleet.Arrival{
			Dev: i % 997, Seq: int64(i / 997), Value: int32(i),
			SentMs: arrive - float64(i%20) - 0.25, ArriveMs: arrive,
		}, 15))
	}
	return frames
}

// gateDigestMs times one Store.Summary over bench.DigestRetained
// retained minima, bench.DigestFresh of them ingested after the
// previous read: the best of three fresh stores, in ms.
func gateDigestMs(b *testing.B) float64 {
	const perBatch = 5000
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		st, err := gate.Open(b.TempDir(), gate.Options{CompactLimit: -1})
		if err != nil {
			b.Fatal(err)
		}
		var batch uint64
		ingest := func(lo, hi int) {
			for k := lo; k < hi; k += perBatch {
				batch++
				if _, err := st.Ingest("digest", batch, digestFrames(k, min(k+perBatch, hi))); err != nil {
					b.Fatal(err)
				}
			}
		}
		ingest(0, bench.DigestRetained-bench.DigestFresh)
		st.Summary()
		ingest(bench.DigestRetained-bench.DigestFresh, bench.DigestRetained)
		start := time.Now()
		sum := st.Summary()
		best = min(best, float64(time.Since(start).Nanoseconds())/1e6)
		if sum.Unique != bench.DigestRetained {
			b.Fatalf("digest state holds %d minima, want %d", sum.Unique, bench.DigestRetained)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return best
}

// gateDecodeUs times gate.DecodeIngest on one json.Marshal body of
// bench.DigestBatchFrames frames whose times carry full float precision,
// as a fleet's arrivals do: the best of 20 calls, in µs.
func gateDecodeUs(b *testing.B) float64 {
	frames := digestFrames(0, bench.DigestBatchFrames)
	body, err := json.Marshal(gate.IngestRequest{Source: "fleet-0123456789abcdef", Batch: 1, Frames: frames})
	if err != nil {
		b.Fatal(err)
	}
	best := math.Inf(1)
	for rep := 0; rep < 20; rep++ {
		start := time.Now()
		req, err := gate.DecodeIngest(body)
		best = min(best, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil || len(req.Frames) != len(frames) {
			b.Fatalf("decoded %d frames, want %d (err %v)", len(req.Frames), len(frames), err)
		}
	}
	return best
}
