package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/gate"
	"repro/internal/vm"
)

const (
	gateFreshMs    = 15
	waveFrames     = 512     // frames per wave batch: a large fleet's wave
	trickleFrames  = 4       // frames per trickle batch: fsync-bound
	trickleDevBase = 1 << 24 // trickle devices never share an id with wave devices
)

// arrivalStream is one client's deterministic frame source: synthetic
// send logs of consecutive devices, pushed through fleet.Transmit over
// the bursty link. No VM runs.
type arrivalStream struct {
	seed uint64
	dev  int
	buf  []fleet.Arrival
}

func (s *arrivalStream) next(n int) []fleet.Arrival {
	for len(s.buf) < n {
		s.buf = append(s.buf, s.device()...)
	}
	out := append([]fleet.Arrival(nil), s.buf[:n]...)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	return out
}

// device makes the next device's arrivals: 2–9 sends 5–49 ms apart, one
// in ten a raw-radio replay of the previous sequence number.
func (s *arrivalStream) device() []fleet.Arrival {
	d := s.dev
	s.dev++
	seed := fleet.DeviceSeed(s.seed, d)
	state := seed
	draw := func(n uint64) uint64 { // splitmix64
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return (z ^ (z >> 31)) % n
	}
	sends := 2 + int(draw(8))
	log := make([]vm.SendRec, 0, sends)
	t := float64(draw(1000))
	var seq int64
	for k := 0; k < sends; k++ {
		t += float64(5 + draw(45))
		if k > 0 && draw(10) == 0 {
			seq--
		}
		log = append(log, vm.SendRec{Value: int32(draw(1 << 16)), TrueMs: t, EstMs: int64(t), Seq: seq})
		seq++
	}
	arr, _ := fleet.Transmit(d, seed, burstLink, log)
	return arr
}

// batch is one POST /v1/ingest of a client.
type batch struct {
	source string
	num    uint64
	arr    []fleet.Arrival
	acked  time.Time
}

func (b *batch) body() []byte {
	frames := make([]gate.Frame, len(b.arr))
	for i, a := range b.arr {
		frames[i] = gate.FrameFromArrival(a, gateFreshMs)
	}
	out, err := json.Marshal(gate.IngestRequest{Source: b.source, Batch: b.num, Frames: frames})
	if err != nil {
		panic(err) // frames hold only finite numbers
	}
	return out
}

// inProcessDigest runs the in-process gateway over the union of the
// batches' arrivals.
func inProcessDigest(batches []*batch) string {
	var all []fleet.Arrival
	for _, b := range batches {
		all = append(all, b.arr...)
	}
	fleet.SortArrivals(all)
	gw := fleet.NewGateway(gateFreshMs)
	for _, a := range all {
		gw.Accept(a)
	}
	return gw.Digest()
}

// gateClient is one closed-loop client on its own connection.
type gateClient struct {
	base string
	hc   *http.Client
}

func newGateClient(base string) *gateClient {
	return &gateClient{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// call sends one request and decodes the 200 response into out.
func (c *gateClient) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (c *gateClient) ingest(b *batch, body []byte) error {
	var resp gate.IngestResponse
	if err := c.call(http.MethodPost, "/v1/ingest", body, &resp); err != nil {
		return err
	}
	if !resp.Applied || resp.HWM != b.num {
		return fmt.Errorf("%s batch %d: applied=%v hwm=%d", b.source, b.num, resp.Applied, resp.HWM)
	}
	return nil
}

func (c *gateClient) digest() (string, error) {
	var sum fleet.RemoteSummary
	err := c.call(http.MethodGet, "/v1/digest", nil, &sum)
	return sum.Digest, err
}

// gateServer is a running ticsgate process.
type gateServer struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	dead   bool
}

// startGate starts ticsgate on a free loopback port and waits until
// /healthz answers.
func startGate(bin, dir string) (*gateServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-dir", dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &gateServer{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { g.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-g.exited:
			g.dead = true
			return nil, fmt.Errorf("ticsgate exited before it was healthy: %v", err)
		default:
		}
		if resp, err := hc.Get(g.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		if time.Now().After(deadline) {
			g.kill()
			return nil, errors.New("ticsgate not healthy after 30 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server and waits until it has exited.
func (g *gateServer) kill() {
	if g.dead {
		return
	}
	g.cmd.Process.Kill()
	<-g.exited
	g.dead = true
}

// peakRSSMB reads the server's VmHWM.
func (g *gateServer) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", g.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// session is one fresh ticsgate state and the frame streams of its two
// clients. Every session of a run sends the same wave frames.
type session struct {
	dir         string
	srv         *gateServer
	wave, trick *arrivalStream
	warm        []*batch
	warmBodies  [][]byte
}

func newSession(r *run, work string) (*session, error) {
	s := &session{
		wave:  &arrivalStream{seed: r.opts.seed},
		trick: &arrivalStream{seed: r.opts.seed, dev: trickleDevBase},
	}
	for i := 1; i <= r.prof.warmWave; i++ {
		s.warm = append(s.warm, &batch{source: "wave", num: uint64(i), arr: s.wave.next(waveFrames)})
	}
	for i := 1; i <= r.prof.warmTrickle; i++ {
		s.warm = append(s.warm, &batch{source: "trickle", num: uint64(i), arr: s.trick.next(trickleFrames)})
	}
	for _, b := range s.warm {
		s.warmBodies = append(s.warmBodies, b.body())
	}
	var err error
	if s.dir, err = os.MkdirTemp(work, "state-"); err != nil {
		return nil, err
	}
	if s.srv, err = startGate(r.opts.ticsgate, s.dir); err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	return s, nil
}

// close kills the server and removes its state.
func (s *session) close() {
	s.srv.kill()
	os.RemoveAll(s.dir)
}

// gateLoad is what one session measured.
type gateLoad struct {
	acked             []*batch // in ack order
	waveMs, trickleMs []float64
	framesPerS, rssMB float64
	digest            string
}

// runGate runs sessions until the run's seconds have passed. In each, two
// closed-loop clients on two connections drive a fresh ticsgate: wave
// sends waveBatches 512-frame batches and reads the digest every
// digestEvery batches; trickle sends 4-frame batches until wave is done.
// The service digest must then equal the in-process gateway's over every
// acked frame, before and after a SIGKILL and restart. Every session
// does the same wave work, so state size and RSS do not grow with speed.
func runGate(r *run) error {
	work, err := os.MkdirTemp("", "gate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var next *session // prepared by the last set-up, not used yet
	defer func() {
		if next != nil {
			next.close()
		}
	}()
	err = r.setup(func() error {
		if next != nil {
			next.close()
			next = nil
		}
		var err error
		next, err = newSession(r, work)
		return err
	})
	if err != nil {
		return err
	}

	var waveMs, trickleMs, rates, rss []float64
	var last gateLoad
	err = r.measure(func() error {
		if next == nil {
			if err := r.setupOnce(); err != nil {
				return err
			}
		}
		s := next
		next = nil
		defer s.close()
		var err error
		if last, err = r.gateSession(s); err != nil {
			return err
		}
		waveMs = append(waveMs, last.waveMs...)
		trickleMs = append(trickleMs, last.trickleMs...)
		rates = append(rates, last.framesPerS)
		rss = append(rss, last.rssMB)
		return nil
	})
	if err != nil {
		return err
	}
	// The wave carries the throughput; the trickle acks are the latency
	// a producer waiting on each small batch sees. Both come from the
	// fastest session or ack, as in the other workloads (see fastest); the
	// ack median and tail are layer metrics.
	r.e2e.add("work_per_s", quantile(rates, 1))
	r.e2e.add("op_ms", fastest(trickleMs))
	r.e2e.add("peak_rss_mb", rss...)
	r.layer.add("gate.ack_p50_ms.wave", quantile(waveMs, 0.5))
	r.layer.add("gate.ack_p50_ms.trickle", quantile(trickleMs, 0.5))
	r.layer.add("gate.ack_tail_ms.trickle", tail(trickleMs))

	if r.tr == nil {
		return nil
	}
	if err := r.gateProbe(filepath.Join(work, "probe"), last.acked, last.digest); err != nil {
		return err
	}
	for _, s := range []struct {
		source string
		acks   []float64
	}{{"wave", waveMs}, {"trickle", trickleMs}} {
		served := r.layer.get("gate.decode_us."+s.source).value() + r.layer.get("gate.ingest_us."+s.source).value()
		r.layer.add("gate.http_overhead_us."+s.source, quantile(s.acks, 0.5)*1e3-served)
	}
	return nil
}

// gateSession runs the warm-up, the load and the checks of one session.
func (r *run) gateSession(s *session) (gateLoad, error) {
	w := r.opts.workload
	var out gateLoad
	waveC, trickleC := newGateClient(s.srv.base), newGateClient(s.srv.base)
	defer waveC.hc.CloseIdleConnections()
	defer trickleC.hc.CloseIdleConnections()
	id := r.tr.begin("warmup", w+"/warmup", 0)
	for i, b := range s.warm {
		r.attempted++
		if err := waveC.ingest(b, s.warmBodies[i]); err != nil {
			return out, fmt.Errorf("warm-up: %w", err)
		}
		b.acked = time.Now()
	}
	r.tr.end(id)
	r.attempted++
	got, err := waveC.digest()
	if err != nil {
		return out, fmt.Errorf("warm-up digest: %w", err)
	}
	if want := inProcessDigest(s.warm); got != want {
		r.fail(1, "warm-up: service digest %s, in-process %s", got, want)
	}
	if prev, ok := r.witness["warmup_digest"]; ok && got != prev {
		r.fail(1, "warm-up digest %s differs from the first session's %s", got, prev)
	}
	r.witness["warmup_digest"] = got

	// The load. Each client keeps its own samples; they merge after both
	// loops have stopped.
	var waveB, trickleB []*batch
	var digestMs []float64
	var waveErr, trickleErr error
	var stop atomic.Bool
	var wg sync.WaitGroup
	loadID := r.tr.begin("load", w+"/load", 0)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for num := uint64(r.prof.warmTrickle + 1); !stop.Load(); num++ {
			b := &batch{source: "trickle", num: num, arr: s.trick.next(trickleFrames)}
			body := b.body()
			t0 := time.Now()
			if trickleErr = trickleC.ingest(b, body); trickleErr != nil {
				stop.Store(true)
				return
			}
			b.acked = time.Now()
			r.tr.add("http.ingest.trickle", fmt.Sprintf("%s/load/trickle-%d", w, num), loadID, t0, b.acked)
			out.trickleMs = append(out.trickleMs, ms(b.acked.Sub(t0)))
			trickleB = append(trickleB, b)
		}
	}()
	for i := 1; i <= r.prof.waveBatches && !stop.Load(); i++ {
		num := uint64(r.prof.warmWave + i)
		b := &batch{source: "wave", num: num, arr: s.wave.next(waveFrames)}
		body := b.body()
		t0 := time.Now()
		if waveErr = waveC.ingest(b, body); waveErr != nil {
			break
		}
		b.acked = time.Now()
		r.tr.add("http.ingest.wave", fmt.Sprintf("%s/load/wave-%d", w, num), loadID, t0, b.acked)
		out.waveMs = append(out.waveMs, ms(b.acked.Sub(t0)))
		waveB = append(waveB, b)
		if i%r.prof.digestEvery == 0 {
			t0 := time.Now()
			if _, waveErr = waveC.digest(); waveErr != nil {
				break
			}
			t1 := time.Now()
			r.tr.add("http.digest", fmt.Sprintf("%s/load/digest-%d", w, i/r.prof.digestEvery), loadID, t0, t1)
			digestMs = append(digestMs, ms(t1.Sub(t0)))
		}
	}
	stop.Store(true)
	wg.Wait()
	load := time.Since(start)
	r.tr.end(loadID)
	r.attempted += int64(len(waveB) + len(trickleB) + len(digestMs))
	for _, err := range []error{waveErr, trickleErr} {
		if err != nil {
			r.attempted++
			r.fail(1, "load: %v", err)
		}
	}
	out.framesPerS = float64(len(waveB)*waveFrames+len(trickleB)*trickleFrames) / load.Seconds()
	r.layer.add("gate.digest_read_ms", digestMs...)

	// Verification: service digest = in-process digest, before and after
	// SIGKILL and restart.
	id = r.tr.begin("verify", w+"/verify", 0)
	defer r.tr.end(id)
	out.acked = append(append(append([]*batch(nil), s.warm...), waveB...), trickleB...)
	sort.SliceStable(out.acked, func(i, j int) bool { return out.acked[i].acked.Before(out.acked[j].acked) })
	out.digest = inProcessDigest(out.acked)
	r.attempted++
	if got, err := waveC.digest(); err != nil || got != out.digest {
		r.fail(1, "service digest %s (%v), in-process %s", got, err, out.digest)
	}
	if out.rssMB, err = s.srv.peakRSSMB(); err != nil {
		return out, err
	}
	s.srv.kill()
	restart := time.Now()
	if s.srv, err = startGate(r.opts.ticsgate, s.dir); err != nil {
		return out, fmt.Errorf("restart: %w", err)
	}
	r.layer.add("gate.recovery_ms", ms(time.Since(restart)))
	after := newGateClient(s.srv.base)
	defer after.hc.CloseIdleConnections()
	r.attempted++
	if got, err := after.digest(); err != nil || got != out.digest {
		r.fail(1, "digest after SIGKILL and restart %s (%v), want %s", got, err, out.digest)
	}
	return out, nil
}

// gateProbe replays the acked request bodies, one at a time and in ack
// order, into a fresh in-process store, timing the decode and the ingest
// (WAL append, fsync, apply) of each.
func (r *run) gateProbe(dir string, batches []*batch, want string) error {
	st, err := gate.Open(dir, gate.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	w := r.opts.workload
	id := r.tr.begin("probe", w+"/probe", 0)
	defer r.tr.end(id)
	var walBytes, walFrames int64
	for _, b := range batches {
		trace := fmt.Sprintf("%s/probe/%s-%d", w, b.source, b.num)
		body := b.body()
		t0 := time.Now()
		var req gate.IngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		t1 := time.Now()
		snaps, wal := st.Snapshots(), st.WALBytes()
		applied, err := st.Ingest(req.Source, req.Batch, req.Frames)
		t2 := time.Now()
		if err != nil || !applied {
			r.fail(1, "probe ingest of %s batch %d: applied=%v err=%v", b.source, b.num, applied, err)
		}
		r.tr.add("gate.decode", trace, id, t0, t1)
		r.tr.add("gate.ingest", trace, id, t1, t2)
		r.layer.add("gate.decode_us."+b.source, us(t1.Sub(t0)))
		r.layer.add("gate.ingest_us."+b.source, us(t2.Sub(t1)))
		if st.Snapshots() > snaps {
			r.layer.add("gate.compact_ms", ms(t2.Sub(t1)))
		} else {
			walBytes += st.WALBytes() - wal
			walFrames += int64(len(req.Frames))
		}
	}
	start := time.Now()
	got := st.Digest()
	end := time.Now()
	r.tr.add("gate.digest", w+"/probe/digest", id, start, end)
	r.layer.add("gate.digest_ms", ms(end.Sub(start)))
	if got != want {
		r.fail(1, "probe store digest %s, in-process %s", got, want)
	}
	r.layer.add("gate.snapshots", float64(st.Snapshots()))
	r.layer.add("gate.fsyncs", float64(st.Fsyncs()))
	r.layer.add("gate.wal_bytes_per_frame", ratio(float64(walBytes), float64(walFrames)))
	return nil
}
