package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/vm"
)

// sendySrc mirrors internal/vm's virtio tests: one send per loop
// iteration, each inside the failure-prone region between checkpoints,
// so a raw radio replays sends after rollbacks.
const sendySrc = `
int main() {
    int i;
    for (i = 0; i < 12; i++) {
        send(100 + i);
    }
    return 0;
}
`

// sendyCfg reproduces the vm package's raw-radio duplication scenario
// (FailEvery k=7300, 5 ms checkpoint period) inside a fleet.
func sendyCfg(virtualize bool) Config {
	cfg := Config{
		Devices:    3,
		Workers:    2,
		Source:     sendySrc,
		Runtime:    "tics",
		Power:      "fail:7300",
		Seed:       7,
		TimerMs:    5,
		Virtualize: virtualize,
		Link:       LinkParams{DelayMinMs: 1, DelayMaxMs: 5},
	}
	if virtualize {
		cfg.Power = "fail:4100"
		cfg.TimerMs = 1
	}
	return cfg
}

// assertExactlyOnce checks the gateway's core guarantee: every device's
// 12 packets were delivered exactly once each, values 100..111 in order.
func assertExactlyOnce(t *testing.T, rep *Report, devices int) {
	t.Helper()
	if got := int(rep.Gateway.Delivered); got != 12*devices {
		t.Fatalf("delivered %d packets, want %d", got, 12*devices)
	}
	for dev := 0; dev < devices; dev++ {
		log := rep.DeviceLog(dev)
		if len(log) != 12 {
			t.Fatalf("device %d: %d deliveries, want 12", dev, len(log))
		}
		seen := map[int32]bool{}
		for _, d := range log {
			if seen[d.Value] {
				t.Fatalf("device %d: value %d delivered twice", dev, d.Value)
			}
			seen[d.Value] = true
			if d.Value < 100 || d.Value > 111 {
				t.Fatalf("device %d: unexpected value %d", dev, d.Value)
			}
		}
	}
}

// TestGatewayAbsorbsRawRadioReplays: with VirtualizeSends off the raw
// radio re-transmits sends replayed after power failures (the phenomenon
// pinned in internal/vm/virtio_test.go). Those replays carry the same
// committed sequence numbers, so gateway dedup absorbs every one of
// them: delivery is exactly-once end-to-end even though the device-side
// radio is at-least-once.
func TestGatewayAbsorbsRawRadioReplays(t *testing.T) {
	rep, err := Run(sendyCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sends <= rep.UniqueSends {
		t.Fatalf("raw radio produced no replays (%d sends, %d unique); scenario lost its teeth",
			rep.Sends, rep.UniqueSends)
	}
	if rep.Gateway.Duplicates == 0 {
		t.Fatal("gateway saw no duplicates to absorb")
	}
	assertExactlyOnce(t, rep, 3)
}

// TestGatewayAbsorbsChannelDuplication: with virtualized sends the
// device is exactly-once, but the channel itself still echoes frames;
// the gateway's dedup absorbs those too.
func TestGatewayAbsorbsChannelDuplication(t *testing.T) {
	cfg := sendyCfg(true)
	cfg.Link.Dup = 0.4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sends != rep.UniqueSends {
		t.Fatalf("virtualized device emitted replays: %d sends, %d unique", rep.Sends, rep.UniqueSends)
	}
	if rep.Link.Echoes == 0 {
		t.Fatal("channel produced no echoes; raise Dup")
	}
	if rep.Gateway.Duplicates != rep.Link.Echoes {
		t.Fatalf("gateway dropped %d duplicates, channel made %d echoes",
			rep.Gateway.Duplicates, rep.Link.Echoes)
	}
	assertExactlyOnce(t, rep, 3)
}

// TestGatewayLossyLinkRetransmits: on a lossy link with ARQ, lost ACKs
// make devices retransmit frames the gateway already holds — the
// classic duplicate-manufacturing path. Dedup absorbs them, and the
// delivered + lost accounting stays exact.
func TestGatewayLossyLinkRetransmits(t *testing.T) {
	cfg := sendyCfg(true)
	cfg.Link.Loss = 0.3
	cfg.Link.Retransmits = 3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Link.FramesLost == 0 {
		t.Fatal("lossy link lost nothing; raise Loss")
	}
	if rep.Link.AcksLost == 0 {
		t.Fatal("no ACKs lost; the retransmit-duplicate path went unexercised")
	}
	if rep.Gateway.Duplicates == 0 {
		t.Fatal("gateway saw no retransmit duplicates")
	}
	// Not all packets survive 4 attempts at 30% loss, so assert the
	// accounting identity instead of full delivery: every unique packet
	// is delivered, expired, or lost — never double-counted.
	unique := int64(rep.Gateway.Delivered) + rep.Gateway.Expired
	if unique+rep.Lost != rep.UniqueSends {
		t.Fatalf("accounting leak: delivered %d + expired %d + lost %d != unique %d",
			rep.Gateway.Delivered, rep.Gateway.Expired, rep.Lost, rep.UniqueSends)
	}
	if rep.Lost != rep.Link.Undelivered {
		t.Fatalf("lost %d packets but link reports %d undelivered", rep.Lost, rep.Link.Undelivered)
	}
	for dev := 0; dev < 3; dev++ {
		seen := map[int64]bool{}
		for _, d := range rep.DeviceLog(dev) {
			if seen[d.Seq] {
				t.Fatalf("device %d: seq %d delivered twice", dev, d.Seq)
			}
			seen[d.Seq] = true
		}
	}
}

// TestGatewayFreshness: a unique packet that arrives past the deadline
// is expired — counted, not delivered, and still deduplicated.
func TestGatewayFreshness(t *testing.T) {
	gw := NewGateway(50)
	fresh := Arrival{Dev: 0, Seq: 0, Value: 1, SentMs: 0, ArriveMs: 10}
	stale := Arrival{Dev: 0, Seq: 1, Value: 2, SentMs: 0, ArriveMs: 120}
	gw.Accept(fresh)
	gw.Accept(stale)
	gw.Accept(stale) // duplicate of an expired packet
	st := gw.Stats()
	if st.Delivered != 1 || st.Expired != 1 || st.Duplicates != 1 {
		t.Fatalf("stats %+v, want 1 delivered / 1 expired / 1 duplicate", st)
	}
	if gw.Unique() != 2 {
		t.Fatalf("unique %d, want 2", gw.Unique())
	}
}

func TestTransmitDeterministic(t *testing.T) {
	log := []vm.SendRec{
		{Value: 1, TrueMs: 10, EstMs: 9, Seq: 0},
		{Value: 2, TrueMs: 20, EstMs: 19, Seq: 1},
		{Value: 3, TrueMs: 30, EstMs: 29, Seq: 2},
	}
	p := LinkParams{Loss: 0.3, Dup: 0.3, DelayMinMs: 1, DelayMaxMs: 10, Retransmits: 2}
	a1, s1 := Transmit(5, 99, p, log)
	a2, s2 := Transmit(5, 99, p, log)
	if !reflect.DeepEqual(a1, a2) || s1 != s2 {
		t.Fatal("Transmit is not deterministic for identical inputs")
	}
	a3, _ := Transmit(5, 100, p, log)
	if reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds produced identical channel behaviour")
	}
}

// TestLatencyQuantileUnified pins the gateway's quantile estimate to the
// shared obs.Histogram estimator on a known sample. The gateway used to
// keep its own sorted-slice quantile; both paths now answer through
// obs.Histogram.Quantile, so the same question asked of the fleet report
// and of a scraped histogram gets the same number.
func TestLatencyQuantileUnified(t *testing.T) {
	gw := NewGateway(0)
	ref := obs.NewHistogram(LatencyBounds)
	for i := 1; i <= 100; i++ {
		lat := float64(i)
		gw.Accept(Arrival{Dev: 0, Seq: int64(i), SentMs: 0, ArriveMs: lat})
		ref.Observe(lat)
	}
	// Uniform 1..100 ms lands exactly on the interpolation grid of
	// LatencyBounds, so the expected values are exact, not approximate.
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := gw.LatencyQuantile(c.q); got != c.want {
			t.Errorf("gateway q%.2f = %v, want %v", c.q, got, c.want)
		}
		if got, want := gw.LatencyQuantile(c.q), ref.Quantile(c.q); got != want {
			t.Errorf("q%.2f: gateway %v != histogram %v", c.q, got, want)
		}
	}
	if gw.LatencyHistogram().Count != 100 || gw.LatencyHistogram().Sum != 5050 {
		t.Fatalf("latency histogram miscounted: %+v", gw.LatencyHistogram())
	}
	if st := gw.Stats(); st.Delivered != 100 || st.Duplicates != 0 || st.Expired != 0 {
		t.Fatalf("stats %+v, want 100 delivered", st)
	}
}

// fmtDigest is the reference rendering Gateway.Digest must reproduce:
// one fmt.Fprintf per delivery, in log order.
func fmtDigest(g *Gateway) string {
	h := sha256.New()
	for _, d := range g.Log() {
		fmt.Fprintf(h, "%d %d %d %.6f %.6f\n", d.Dev, d.Seq, d.Value, d.SentMs, d.ArriveMs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestLineMatchesFmt: the strconv digest renders the same bytes as
// fmt's "%d %d %d %.6f %.6f" for random deliveries and for the floats
// where the two formatters could part ways (±0, ±Inf, NaN, huge
// magnitudes, rounding at the sixth decimal).
func TestDigestLineMatchesFmt(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e300, -1e300, 0.0000005, 0.0000015, -0.0000005, 2.5e-7, 123456.7890125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, x := range special {
		for _, y := range special {
			a := Arrival{Dev: -3, Seq: math.MaxInt64, Value: math.MinInt32, SentMs: x, ArriveMs: y}
			want := fmt.Sprintf("%d %d %d %.6f %.6f\n", a.Dev, a.Seq, a.Value, a.SentMs, a.ArriveMs)
			if got := string(appendDigestLine(nil, &a)); got != want {
				t.Fatalf("line for %v, %v:\n got %q\nwant %q", x, y, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	for _, fresh := range []float64{0, 5} {
		g := NewGateway(fresh)
		for i := 0; i < 3000; i++ {
			sent := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-3))
			a := Arrival{
				Dev: rng.Intn(40), Seq: int64(rng.Intn(200)), Value: int32(rng.Uint32()),
				SentMs: sent, ArriveMs: sent + rng.ExpFloat64()*4,
			}
			if rng.Intn(50) == 0 {
				a.SentMs = special[rng.Intn(len(special))]
			}
			g.Accept(a)
		}
		if got, want := g.Digest(), fmtDigest(g); got != want {
			t.Fatalf("fresh %g: digest %s, fmt reference %s", fresh, got, want)
		}
	}
}

// TestAppendMsMatchesStrconv holds the integer six-decimal renderer to
// strconv's 'f' rendering: random bit patterns at every exponent up to
// past the 2^43 cut-over, exact ties at the sixth decimal (multiples of
// 1/128 and other dyadic fractions), carries into the integer part,
// subnormals and signed zeros.
func TestAppendMsMatchesStrconv(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := string(appendMs(nil, x)), strconv.FormatFloat(x, 'f', 6, 64); got != want {
			t.Fatalf("appendMs(%v) [bits %#x] = %q, strconv %q", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1 << 43, math.Nextafter(1<<43, 0), -(1 << 43),
		0.0078125, 0.0234375, 0.9999995, 0.99999949999999, 9.9999995, 0.0000005, 0.0000015, -0.0000005,
		1e-7, 5e-7, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-75, 0x1p-64, 0x1p-63} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		// Any sign and mantissa, biased exponent 0 (subnormal) to 1068 (2^45).
		exp := uint64(rng.Intn(1069))
		check(math.Float64frombits(uint64(rng.Intn(2))<<63 | exp<<52 | rng.Uint64()&(1<<52-1)))
		// Dyadic fractions: every tie at the sixth decimal is one.
		check(float64(rng.Int63n(1<<40)) / float64(uint64(1)<<rng.Intn(64)))
		// Millisecond timestamps as the channel makes them.
		check(float64(rng.Intn(1<<20)) + rng.Float64()*20)
	}
}
