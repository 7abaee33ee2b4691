package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
)

// refResult is what the reference gateway derives from an arrival set.
type refResult struct {
	log                []Delivery
	stats              GatewayStats
	unique             int
	hist               *obs.Histogram
	delivered, expired []int64
}

// refGateway is the reference implementation the order-independent core
// must equal: sort the whole arrival set into observation order, let the
// first arrival of each (device, seq) win, and judge it against the
// freshness budget.
func refGateway(arrivals []Arrival, freshMs float64, devices int) refResult {
	sorted := slices.Clone(arrivals)
	SortArrivals(sorted)
	r := refResult{hist: obs.NewHistogram(LatencyBounds), delivered: make([]int64, devices), expired: make([]int64, devices)}
	seen := map[gwKey]bool{}
	for _, a := range sorted {
		r.stats.Arrivals++
		if k := (gwKey{a.Dev, a.Seq}); seen[k] {
			r.stats.Duplicates++
			continue
		} else {
			seen[k] = true
		}
		lat := a.ArriveMs - a.SentMs
		if freshMs > 0 && lat > freshMs {
			r.stats.Expired++
			r.expired[a.Dev]++
			continue
		}
		r.stats.Delivered++
		r.delivered[a.Dev]++
		r.log = append(r.log, Delivery{Dev: a.Dev, Seq: a.Seq, Value: a.Value, SentMs: a.SentMs, ArriveMs: a.ArriveMs})
		r.hist.Observe(lat)
	}
	r.unique = len(seen)
	return r
}

func refDigest(log []Delivery) string {
	h := sha256.New()
	for _, d := range log {
		fmt.Fprintf(h, "%d %d %d %.6f %.6f\n", d.Dev, d.Seq, d.Value, d.SentMs, d.ArriveMs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGatewayOrderIndependent feeds the arrivals of a fleet with
// raw-radio replays, loss, echoes and ARQ retransmits to the gateway
// core in many orders and demands that every derived view — log, digest,
// stats, unique count, per-device outcome counts and the full latency
// histogram, Sum included — equals the sort-then-first-wins reference.
func TestGatewayOrderIndependent(t *testing.T) {
	cfg := lossyCfg(1)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var waves [][]Arrival // one device per wave, in channel-pass order
	for dev := 0; dev < cfg.Devices; dev++ {
		_, run, err := ExportDevice(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := Transmit(dev, DeviceSeed(cfg.Seed, dev), cfg.Link, run.Result.SendLog)
		waves = append(waves, arr)
	}
	stream := slices.Concat(waves...)
	ref := refGateway(stream, cfg.FreshnessMs, cfg.Devices)
	if ref.stats.Duplicates == 0 || ref.stats.Expired == 0 || rep.Link.Echoes == 0 || rep.Link.AcksLost == 0 {
		t.Fatalf("scenario lost its teeth: %+v, link %+v", ref.stats, rep.Link)
	}
	if got, want := rep.Digest, refDigest(ref.log); got != want {
		t.Fatalf("fleet digest %s, reference %s", got, want)
	}

	sorted := slices.Clone(stream)
	SortArrivals(sorted)
	orders := map[string][][]Arrival{
		"sorted":       {sorted},
		"reversed":     {reversed(sorted)},
		"waves":        waves,
		"waves-backwd": reversed(waves),
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := slices.Clone(stream)
		rand.New(rand.NewSource(seed)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		orders[fmt.Sprintf("shuffle-%d", seed)] = [][]Arrival{s}
	}
	for name, chunks := range orders {
		t.Run(name, func(t *testing.T) {
			gw := NewGateway(cfg.FreshnessMs)
			for _, chunk := range chunks {
				for _, a := range chunk {
					gw.Accept(a)
				}
				gw.Digest() // derived views between chunks must not disturb the result
			}
			if got := gw.Log(); !reflect.DeepEqual(got, ref.log) {
				t.Fatalf("log differs from reference:\n got %v\nwant %v", got, ref.log)
			}
			if got, want := gw.Digest(), refDigest(ref.log); got != want {
				t.Fatalf("digest %s, reference %s", got, want)
			}
			if got := gw.Stats(); got != ref.stats {
				t.Fatalf("stats %+v, reference %+v", got, ref.stats)
			}
			if got := gw.Unique(); got != ref.unique {
				t.Fatalf("unique %d, reference %d", got, ref.unique)
			}
			del, exp := gw.deviceCounts(cfg.Devices)
			if !reflect.DeepEqual(del, ref.delivered) || !reflect.DeepEqual(exp, ref.expired) {
				t.Fatalf("per-device delivered/expired %v/%v, reference %v/%v", del, exp, ref.delivered, ref.expired)
			}
			if got := gw.LatencyHistogram(); !reflect.DeepEqual(got, ref.hist) {
				t.Fatalf("latency histogram %+v, reference %+v", got, ref.hist)
			}
		})
	}
}

func reversed[S ~[]E, E any](s S) S {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}
