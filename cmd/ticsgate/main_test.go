package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gate"
)

// TestServerTimeoutsOutlastTheClient: every connection timeout is set,
// and the read and write budgets exceed the client's own request
// timeout, so only requests the client has abandoned get cut off.
func TestServerTimeoutsOutlastTheClient(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler(), serverTimeouts)
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": hs.ReadHeaderTimeout, "ReadTimeout": hs.ReadTimeout,
		"WriteTimeout": hs.WriteTimeout, "IdleTimeout": hs.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s is unset", name)
		}
	}
	if hs.ReadTimeout < gate.DefaultRequestTimeout || hs.WriteTimeout < gate.DefaultRequestTimeout {
		t.Errorf("read %v / write %v must not undercut the client's %v", hs.ReadTimeout, hs.WriteTimeout, gate.DefaultRequestTimeout)
	}
}

// TestSlowBodyIsCutOff: a client that sends its headers and then
// trickles nothing of a promised body loses the connection once the read
// budget runs out, and no batch is applied. The budget is shortened here
// so the test does not wait out the production value.
func TestSlowBodyIsCutOff(t *testing.T) {
	st, err := gate.Open(t.TempDir(), gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tmo := serverTimeouts
	tmo.read = 300 * time.Millisecond
	hs := newHTTPServer("", gate.NewServer(st).Handler(), tmo)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/ingest HTTP/1.1\r\nHost: gate\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"source\":")); err != nil {
		t.Fatal(err)
	}
	// Hold the rest of the body back. The server must answer or hang up
	// long before this deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	for {
		if _, err := r.ReadByte(); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("server still holds the slow connection after %v", time.Since(start))
			}
			break // EOF or reset: the server hung up
		}
	}
	if el := time.Since(start); el < tmo.read {
		t.Fatalf("connection closed after %v, before the %v read budget", el, tmo.read)
	}
	if st.Sources() != 0 {
		t.Fatalf("a truncated body applied a batch: %d sources", st.Sources())
	}
}

// TestPprofMountedOnlyWhenEnabled: /debug/pprof/ answers only with
// -pprof, and the ticsgate endpoints answer either way.
func TestPprofMountedOnlyWhenEnabled(t *testing.T) {
	st, err := gate.Open(t.TempDir(), gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := gate.NewServer(st)
	for _, on := range []bool{false, true} {
		ts := httptest.NewServer(handler(srv, on))
		code := func(path string) int {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		}
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
			if got := code(path); got != want {
				t.Errorf("pprof=%v: GET %s = %d, want %d", on, path, got, want)
			}
		}
		for _, path := range []string{"/healthz", "/v1/digest", "/metrics"} {
			if got := code(path); got != http.StatusOK {
				t.Errorf("pprof=%v: GET %s = %d, want 200", on, path, got)
			}
		}
		ts.Close()
	}
}
