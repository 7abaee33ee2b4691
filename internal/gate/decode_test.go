package gate

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestDecodeIngestFastPath: every body json.Marshal writes for an
// IngestRequest takes the direct parser and decodes as json.Unmarshal
// does. A Frame field added or reordered without the parser following
// fails here instead of quietly sending every body to the slow path.
func TestDecodeIngestFastPath(t *testing.T) {
	var printable []byte
	for c := byte(' '); c <= '~'; c++ {
		if c != '"' && c != '\\' {
			printable = append(printable, c)
		}
	}
	reqs := []IngestRequest{
		{Source: "s", Batch: 1},
		{Source: "s", Batch: 2, Frames: []Frame{}},
		{Source: "", Batch: 0, Frames: []Frame{{}}},
		{Source: string(printable), Batch: math.MaxUint64, Frames: []Frame{{Dev: 1, Seq: 1, ArriveMs: 5}}},
		{Source: "trickle", Batch: 9, Frames: []Frame{
			{Dev: 3, Seq: 40, Value: 12, SentMs: 350.5, DeviceMs: 350, ArriveMs: 353.25, FreshMs: 15},
			{Dev: 3, Seq: 40, Value: 12, SentMs: 350.5, DeviceMs: 350, ArriveMs: 361.0625, Attempt: 1, Echo: true, FreshMs: 15},
			{Dev: 4, Seq: 2, Value: -1, SentMs: 1, ArriveMs: 2},
			{Dev: 5, Seq: 3, Echo: true},
		}},
		{Source: "edges", Batch: 3, Frames: []Frame{
			{Dev: math.MaxInt, Seq: math.MaxInt64, Value: math.MaxInt32, SentMs: math.MaxFloat64, DeviceMs: math.MaxInt64, ArriveMs: 1e21, Attempt: math.MaxInt, FreshMs: 1e-7},
			{Dev: math.MinInt, Seq: math.MinInt64, Value: math.MinInt32, SentMs: -math.MaxFloat64, DeviceMs: math.MinInt64, ArriveMs: 5e-324, Attempt: math.MinInt, FreshMs: -1e300},
			{SentMs: math.Copysign(0, -1), ArriveMs: 1e300, FreshMs: 0.1 + 0.2},
		}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		// Client.IngestWave's frames, with and without a budget.
		frames := asBatches(synthArrivals(seed, 200), float64(seed-1)*50, 1<<20)[0]
		reqs = append(reqs, IngestRequest{Source: "fleet-0123456789abcdef", Batch: uint64(seed), Frames: frames})
	}
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(req) // the same body plus a newline
		for _, b := range [][]byte{body, buf.Bytes()} {
			got, ok := decodeFast(b)
			if !ok {
				t.Fatalf("request %d: json.Marshal body declined by the direct parser:\n%.300s", i, b)
			}
			var want IngestRequest
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, req) {
				t.Fatalf("request %d: direct parser decoded %+v, json.Unmarshal %+v", i, got, want)
			}
		}
	}
}
