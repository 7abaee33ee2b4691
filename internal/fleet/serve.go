package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server wraps a fleet behind an HTTP interface — the embryo of the
// long-running gateway service the ROADMAP calls ticsgate. It runs the
// fleet once (or loops it, re-deriving the seed per round so every round
// stays individually reproducible) and serves the latest completed
// report:
//
//	GET /            tiny live dashboard (polls /fleet, tails /events)
//	GET /healthz     liveness: "ok"
//	GET /fleet       JSON progress: devices done, deliveries, latency
//	                 quantiles, digest, anomalies
//	GET /metrics     Prometheus text format: the server's round counter,
//	                 then Report.WritePrometheus
//	GET /trace/{device}/{seq}  one message's span chain as JSON
//	GET /events      SSE stream: one event per completed fleet round
//
// Handlers only ever read a published *Report, which is immutable after
// Run returns, so the server needs no locks beyond the publish swap.
type Server struct {
	cfg  Config
	loop bool

	// Pprof mounts net/http/pprof under /debug/pprof/ on Handler's mux.
	// Off by default: profiling endpoints expose host internals, so the
	// operator opts in per server (ticsfleet -pprof). Set before
	// Handler() is called.
	Pprof bool

	mu      sync.RWMutex
	rep     *Report
	runs    int64
	lastErr error

	subMu    sync.Mutex
	subs     map[int]chan []byte
	nextSub  int
	done     chan struct{}
	shutOnce sync.Once
}

// NewServer builds a server over the given fleet config. Collect and
// Trace are forced on: a telemetry server without metrics or spans would
// answer 404 to its own reason for existing.
func NewServer(cfg Config, loop bool) *Server {
	cfg.Collect = true
	cfg.Trace = true
	return &Server{cfg: cfg, loop: loop, subs: map[int]chan []byte{}, done: make(chan struct{})}
}

// Shutdown ends the server's streaming side: the fleet loop stops after
// the current round, and every SSE subscriber is unregistered and its
// channel closed so the handler goroutines drain out instead of parking
// on a channel nobody will ever send on again. Idempotent and safe to
// call concurrently with publish — both sides hold subMu, so a closed
// channel is never sent on.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() {
		close(s.done)
		s.subMu.Lock()
		defer s.subMu.Unlock()
		for id, ch := range s.subs {
			close(ch)
			delete(s.subs, id)
		}
	})
}

// Report returns the latest published report (nil before the first round
// completes).
func (s *Server) Report() *Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rep
}

// Runs returns how many fleet rounds have completed.
func (s *Server) Runs() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.runs
}

// RunFleet executes fleet rounds until ctx is cancelled (one round only
// when the server is not looping), publishing each completed report and
// notifying SSE subscribers. Round r runs with Seed+r, so any round can
// be reproduced standalone by running the same config with that seed.
func (s *Server) RunFleet(ctx context.Context) error {
	for round := uint64(0); ; round++ {
		cfg := s.cfg
		cfg.Seed = s.cfg.Seed + round
		rep, err := Run(cfg)
		s.mu.Lock()
		if err != nil {
			s.lastErr = err
		} else {
			s.rep = rep
			s.runs++
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
		s.publish(rep)
		if !s.loop {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return nil
		default:
		}
	}
}

// publish fans a round summary out to every SSE subscriber.
func (s *Server) publish(rep *Report) {
	b, err := json.Marshal(s.summary(rep))
	if err != nil {
		return
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- b:
		default: // slow consumer: drop rather than stall the fleet loop
		}
	}
}

// summary is the compact per-round record /events streams and /fleet
// embeds next to the full report.
func (s *Server) summary(rep *Report) map[string]any {
	s.mu.RLock()
	runs := s.runs
	s.mu.RUnlock()
	return map[string]any{
		"run":        runs,
		"seed":       rep.Seed,
		"devices":    rep.Devices,
		"completed":  rep.Completed,
		"delivered":  rep.Gateway.Delivered,
		"duplicates": rep.Gateway.Duplicates,
		"expired":    rep.Gateway.Expired,
		"lost":       rep.Lost,
		"p50_ms":     rep.LatencyP50,
		"p99_ms":     rep.LatencyP99,
		"anomalies":  len(rep.Anomalies),
		"digest":     rep.Digest,
		"wall_ms":    rep.WallSeconds * 1000,
		"phases":     PhaseMap(rep.Phases),
	}
}

// Handler returns the server's HTTP mux. When Pprof is set it also
// mounts net/http/pprof under /debug/pprof/ — heap, goroutine, CPU
// profiles and execution traces of the *simulator host process*, the
// drill-down path when fleet_phase_seconds or fleet_resource_* point at
// a hot phase. Without the flag the prefix 404s like any unknown path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace/{device}/{seq}", s.handleTrace)
	mux.HandleFunc("GET /events", s.handleEvents)
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	rep := s.Report()
	if rep == nil {
		s.mu.RLock()
		err := s.lastErr
		s.mu.RUnlock()
		msg := "no completed fleet round yet"
		if err != nil {
			msg = err.Error()
		}
		http.Error(w, msg, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"summary": s.summary(rep),
		"report":  rep,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mu.RLock()
	runs := s.runs
	s.mu.RUnlock()
	reg := obs.NewRegistry()
	reg.Add("fleet_serve_runs", runs)
	reg.WritePrometheus(w)
	if rep := s.Report(); rep != nil {
		rep.WritePrometheus(w)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rep := s.Report()
	if rep == nil || rep.Telemetry == nil {
		http.Error(w, "no completed fleet round yet", http.StatusServiceUnavailable)
		return
	}
	dev, err := strconv.Atoi(r.PathValue("device"))
	if err != nil {
		http.Error(w, "bad device index", http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseInt(r.PathValue("seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad sequence number", http.StatusBadRequest)
		return
	}
	tr := rep.Telemetry.Trace(dev, seq)
	if tr == nil {
		http.Error(w, fmt.Sprintf("no trace for device %d seq %d", dev, seq), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(tr)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	ch := make(chan []byte, 8)
	s.subMu.Lock()
	select {
	case <-s.done:
		// Shutdown already ran: registering now would leak this handler
		// (nobody will ever close the channel again).
		s.subMu.Unlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subMu.Unlock()
	defer func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}()

	// Replay the latest round on connect so a fresh dashboard is not
	// blank until the next round completes.
	if rep := s.Report(); rep != nil {
		if b, err := json.Marshal(s.summary(rep)); err == nil {
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case b, ok := <-ch:
			if !ok {
				return // Shutdown closed the subscription
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
		}
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// ServeOptions selects Serve's optional behaviors.
type ServeOptions struct {
	Loop  bool // re-run the fleet continuously (round r uses seed+r)
	Pprof bool // mount net/http/pprof under /debug/pprof/
}

// Serve binds addr, starts the fleet (looping when opts.Loop is set) in
// the background, and serves HTTP until the listener fails. The fleet's
// first round runs after the listener is up, so /healthz answers
// immediately — the CI smoke depends on that ordering.
func Serve(addr string, cfg Config, opts ServeOptions) error {
	s := NewServer(cfg, opts.Loop)
	s.Pprof = opts.Pprof
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("ticsfleet: serving on http://%s (fleet of %d × %s, loop=%v, pprof=%v)\n",
		ln.Addr(), cfg.Devices, cfg.App, opts.Loop, opts.Pprof)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Shutdown on exit so the fleet loop and any parked SSE handlers
	// drain instead of outliving the listener.
	defer s.Shutdown()
	go s.RunFleet(ctx)
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.Serve(ln)
}

// dashboardHTML is the zero-dependency live view: stat tiles fed by
// /fleet polling, a round log tailing /events, and per-device anomaly
// rows. Deliberately tiny — the real dashboards live in Grafana on top
// of /metrics; this one exists so `ticsfleet -serve` is self-contained.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>ticsfleet</title>
<style>
body{font-family:ui-monospace,monospace;background:#111;color:#ddd;margin:2em}
h1{font-size:1.2em} .tiles{display:flex;flex-wrap:wrap;gap:12px}
.tile{background:#1c1c1c;border:1px solid #333;border-radius:6px;padding:10px 16px;min-width:110px}
.tile .v{font-size:1.5em} .tile .k{color:#888;font-size:.8em}
#anoms li{color:#e08} #log{margin-top:1em;color:#9a9;white-space:pre-wrap;font-size:.85em}
a{color:#8ac}
</style></head><body>
<h1>ticsfleet — live fleet telemetry</h1>
<div class="tiles" id="tiles"></div>
<h3>round phases</h3><div id="phases" style="color:#9ab"></div>
<h3>anomalies</h3><ul id="anoms"><li style="color:#888">none</li></ul>
<div id="log"></div>
<p><a href="/fleet">/fleet</a> · <a href="/metrics">/metrics</a> · /trace/{device}/{seq}</p>
<script>
function tile(k,v){return '<div class="tile"><div class="v">'+v+'</div><div class="k">'+k+'</div></div>'}
async function refresh(){
  try{
    const r = await fetch('/fleet'); if(!r.ok){return}
    const d = await r.json(); const s = d.summary;
    document.getElementById('tiles').innerHTML =
      tile('run', s.run)+tile('devices', s.devices)+tile('delivered', s.delivered)+
      tile('expired', s.expired)+tile('lost', s.lost)+
      tile('p50 ms', s.p50_ms.toFixed(1))+tile('p99 ms', s.p99_ms.toFixed(1))+
      tile('anomalies', s.anomalies);
    const ph = (d.report.phases)||[];
    const wall = d.report.wall_seconds||0;
    document.getElementById('phases').textContent = ph.map(p =>
      p.phase+' '+(p.seconds*1000).toFixed(1)+'ms').join('  ·  ')+
      (wall ? '  ·  wall '+(wall*1000).toFixed(1)+'ms' : '');
    const as = (d.report.anomalies)||[];
    document.getElementById('anoms').innerHTML = as.length
      ? as.map(a=>'<li>dev'+a.dev+' '+a.kind+': '+a.detail+'</li>').join('')
      : '<li style="color:#888">none</li>';
  }catch(e){}
}
refresh(); setInterval(refresh, 2000);
new EventSource('/events').onmessage = ev => {
  const s = JSON.parse(ev.data);
  const log = document.getElementById('log');
  log.textContent = 'run '+s.run+' seed '+s.seed+' delivered '+s.delivered+
    ' p99 '+s.p99_ms.toFixed(1)+'ms digest '+s.digest.slice(0,16)+'\n' + log.textContent;
  refresh();
};
</script></body></html>`
