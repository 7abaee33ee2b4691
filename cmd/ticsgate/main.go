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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
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
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ticsgate:", err)
	os.Exit(1)
}
