package gate

import (
	"encoding/json"
	"reflect"
	"testing"
)

// addIngestSeeds seeds an ingest-body fuzz target.
func addIngestSeeds(f *testing.F) {
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"arrive_ms":5}]}`))
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":4294967297,"seq":1,"attempt":2}]}`))
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":-3,"seq":-1,"value":-7,"sent_ms":1e300,"device_ms":-9,"arrive_ms":-0.5,"attempt":-2147483648,"echo":true,"fresh_ms":3}]}`))
	f.Add([]byte(`{"source":"","batch":0}`))
	wave, err := json.Marshal(IngestRequest{Source: "fleet-0123abcd", Batch: 7, Frames: asBatches(synthArrivals(1, 12), 100, 1<<20)[0]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wave)
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":-3,"seq":-1,"value":-7,"sent_ms":-1e300,"device_ms":-9,"arrive_ms":1e300,"attempt":-1,"echo":true,"fresh_ms":0}]}`))
	f.Add([]byte(`{"source":"s","batch":1,"frames":null}`))
	f.Add([]byte(`{"frames":[{"seq":2,"arrive_ms":5,"dev":1}],"batch":1,"source":"s"}`))
	// Near misses of the json.Marshal form: each must still decode, or
	// fail, exactly as json.Unmarshal has it.
	for _, body := range []string{
		``,
		` {"source":"s","batch":1,"frames":null}`,
		`{"source":"s","batch":1,"frames":null} x`,
		`{"source":"s","batch":1,"frames":null}{}`,
		`{"batch":1,"source":"s","frames":null}`,
		`{"source":"s","batch":1}`,
		`{"source":"s\n","batch":1,"frames":null}`,
		`{"source":"é","batch":1,"frames":null}`,
		`{"source":"\u00e9","batch":1,"frames":null}`,
		`{"source":"\u003C","batch":1,"frames":null}`,
		`{"source":"s","batch":01,"frames":null}`,
		`{"source":"s","batch":-1,"frames":null}`,
		`{"source":"s","batch":1.0,"frames":null}`,
		`{"source":"s","batch":18446744073709551616,"frames":null}`,
		`{"source":"s","batch":1,"frames":[]]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":2147483648,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":1e400,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":1.,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":.5,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":+1,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":1e,"device_ms":0,"arrive_ms":0,"attempt":0}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0,"echo":false}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0,"fresh_ms":1,"echo":true}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0},]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0}{"dev":1}]}`,
		`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"value":1,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0,"Dev":2}]}`,
	} {
		f.Add([]byte(body))
	}
}

// decodeLikeUnmarshal decodes body with DecodeIngest and requires
// json.Unmarshal's verdict: both refuse with the same error text, or
// both yield equal requests. ok reports a decoded request.
func decodeLikeUnmarshal(t *testing.T, body []byte) (req IngestRequest, ok bool) {
	req, err := DecodeIngest(body)
	var ref IngestRequest
	refErr := json.Unmarshal(body, &ref)
	if (err != nil) != (refErr != nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("DecodeIngest error %v, json.Unmarshal error %v", err, refErr)
	}
	if err == nil && !reflect.DeepEqual(req, ref) {
		t.Fatalf("DecodeIngest decoded %+v, json.Unmarshal %+v", req, ref)
	}
	return req, err == nil
}

// FuzzDecodeIngest checks only the decoder against json.Unmarshal, with
// no store behind it, so a fuzzing budget goes to decoding rather than
// to fsync.
func FuzzDecodeIngest(f *testing.F) {
	addIngestSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { decodeLikeUnmarshal(t, body) })
}

// FuzzIngest feeds arbitrary ingest bodies through DecodeIngest, which
// must decode each exactly as json.Unmarshal does, then ingests the
// request into a store and reopens it: whatever Ingest accepted must
// replay from the WAL to the same digest and high-water mark, and
// whatever it refused must leave no trace.
func FuzzIngest(f *testing.F) {
	addIngestSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decodeLikeUnmarshal(t, body)
		if !ok {
			return
		}
		dir := t.TempDir()
		st := openStore(t, dir, Options{})
		empty := st.Digest()
		applied, err := st.Ingest(req.Source, req.Batch, req.Frames)
		want, hwm := st.Digest(), st.SourceHWM(req.Source)
		if (err != nil || !applied) && want != empty {
			t.Fatalf("refused batch (applied=%v, err=%v) changed the digest", applied, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = openStore(t, dir, Options{})
		defer st.Close()
		if got := st.Digest(); got != want {
			t.Fatalf("digest after reopen %s, want %s (err=%v)", got, want, err)
		}
		if got := st.SourceHWM(req.Source); got != hwm {
			t.Fatalf("hwm after reopen %d, want %d", got, hwm)
		}
	})
}
