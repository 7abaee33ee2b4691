package gate

import (
	"encoding/json"
	"testing"
)

// FuzzIngest feeds arbitrary JSON ingest bodies to a store, then closes
// and reopens it: whatever Ingest accepted must replay from the WAL to
// the same digest and high-water mark, and whatever it refused must
// leave no trace.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":1,"seq":1,"arrive_ms":5}]}`))
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":4294967297,"seq":1,"attempt":2}]}`))
	f.Add([]byte(`{"source":"s","batch":1,"frames":[{"dev":-3,"seq":-1,"value":-7,"sent_ms":1e300,"device_ms":-9,"arrive_ms":-0.5,"attempt":-2147483648,"echo":true,"fresh_ms":3}]}`))
	f.Add([]byte(`{"source":"","batch":0}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req IngestRequest
		if json.Unmarshal(body, &req) != nil {
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
