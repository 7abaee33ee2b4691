// Command ticsgate runs the fleet gateway as a standalone crash-tolerant
// service: an HTTP server with a durable exactly-once ingest path.
//
//	ticsgate -addr :9190 -dir /var/lib/ticsgate
//	ticsfleet -n 64 -fresh 500 -gateway http://127.0.0.1:9190
//
// Every acknowledged batch is CRC-framed, appended to a write-ahead log
// and fsynced before the HTTP 200 goes out, so killing the process at
// any instant — including between the fsync and the response — loses
// nothing and double-delivers nothing: on restart the store replays the
// log, resumes each source's batch high-water mark, and the client's
// retried batch is recognized as already applied. The delivery digest
// reported on /v1/digest is byte-identical to what an in-process
// fleet run computes.
//
// -crash-after N is fault injection for tests and CI: the process
// SIGKILLs itself right after the Nth applied batch becomes durable,
// before the response is written.
//
// -pprof mounts net/http/pprof under /debug/pprof/ (off by default), so
// the cost of an ingest or a digest read can be read from a profile:
//
//	go tool pprof 'http://127.0.0.1:9190/debug/pprof/profile?seconds=10'
//
// A CPU profile must stay shorter than the 15 s write timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gate"
)

func main() {
	var (
		addr       = flag.String("addr", ":9190", "listen address")
		dir        = flag.String("dir", "ticsgate-data", "durable state directory (WAL + snapshot)")
		walLimit   = flag.Int64("wal-limit", gate.DefaultCompactLimit, "compact the WAL into a snapshot past this many bytes (-1 = never)")
		crashAfter = flag.Int64("crash-after", 0, "fault injection: SIGKILL self after the Nth applied batch is durable, before its response (0 = off)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (host-process profiling)")
	)
	flag.Parse()

	st, err := gate.Open(*dir, gate.Options{CompactLimit: *walLimit})
	if err != nil {
		fatal(err)
	}
	rec := st.Recovery()
	fmt.Printf("ticsgate: recovered %s in %.1f ms: snapshot=%v batches=%d frames=%d truncated=%dB; %d sources, %d unique packets\n",
		*dir, rec.DurationMs, rec.Snapshot, rec.Batches, rec.ReplayedFrames, rec.TruncatedBytes, st.Sources(), st.Unique())

	srv := gate.NewServer(st)
	srv.CrashAfter = *crashAfter
	hs := newHTTPServer(*addr, handler(srv, *pprofOn), serverTimeouts)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		fmt.Printf("ticsgate: listening on %s\n", *addr)
		done <- hs.ListenAndServe()
	}()

	select {
	case sig := <-stop:
		fmt.Printf("ticsgate: %s, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			st.Close()
			fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		fatal(err)
	}
}

// handler is the ticsgate mux, with net/http/pprof mounted under
// /debug/pprof/ when pprofOn is set. Off by default: the profiling
// endpoints expose host internals. Without the flag the prefix 404s
// like any unknown path.
func handler(srv *gate.Server, pprofOn bool) http.Handler {
	if !pprofOn {
		return srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// timeouts bound how long one connection may hold the server.
type timeouts struct {
	readHeader, read, write, idle time.Duration
}

// serverTimeouts are ticsgate's. read covers the whole request, body
// included, so a client trickling a body cannot pin a connection and its
// goroutine; write covers the handler (WAL append and fsync) plus the
// response. Both exceed the client's gate.DefaultRequestTimeout, so the
// server never cuts off a request its client is still waiting for.
var serverTimeouts = timeouts{readHeader: 5 * time.Second, read: 15 * time.Second, write: 15 * time.Second, idle: 60 * time.Second}

func newHTTPServer(addr string, h http.Handler, t timeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ticsgate:", err)
	os.Exit(1)
}
