package fleet

import (
	"math"
	"reflect"
	"testing"
)

// readViews is everything a read of the gateway derives.
type readViews struct {
	digest   string
	log      []Delivery
	retained []retained
	hist     any
	summary  RemoteSummary
}

func views(g *Gateway) readViews {
	v := readViews{digest: g.Digest(), log: g.Log(), hist: g.LatencyHistogram(), summary: g.Summary()}
	g.Retained(func(a Arrival, freshMs float64) { v.retained = append(v.retained, retained{a, freshMs}) })
	return v
}

// FuzzGatewayReads is the differential check of the kept log: a gateway
// read at random points between arrivals must derive, at every read,
// exactly what a fresh gateway fed the same arrival set derives from
// one read. The decoder packs few (device, seq) keys, few arrival times
// and three budgets into the input, so duplicates, earlier arrivals
// that replace a retained minimum (some after the minimum was read),
// time ties settled by device and seq, and replacements that flip a
// minimum between delivered and expired are all common.
//
// Each op is one byte, then four more for an arrival: op%8 == 0 reads.
// Arrival times are finite; a NaN time is ordered too, but Log and the
// histogram could not be compared with reflect.DeepEqual.
func FuzzGatewayReads(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 0, 0, 1, 1, 2, 1, 4, 0, 9, 0, 1, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 40, 0, 8, 1, 0, 0, 10, 8, 3, 2, 2, 5, 0, 16, 1, 0, 0, 2, 0, 0, 16, 1, 0, 0, 0})
	f.Add([]byte{3, 5, 7, 200, 19, 0, 2, 5, 7, 100, 3, 0, 4, 6, 9, 100, 3, 0, 2, 5, 7, 100, 11, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGateway(0)
		var fed []retained
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%8 == 0 || len(data) < 4 {
				ref := NewGateway(0)
				for _, r := range fed {
					ref.AcceptWithin(r.Arrival, r.freshMs)
				}
				if got, want := views(g), views(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %d arrivals the kept log reads\n%+v\na fresh gateway reads\n%+v", len(fed), got, want)
				}
				continue
			}
			a := Arrival{
				Dev:     int(op % 4),
				Seq:     int64(data[0] % 8),
				Value:   int32(data[0]),
				SentMs:  float64(data[1] % 16),
				Attempt: int(data[3] % 3),
				Echo:    data[3]&4 != 0,
			}
			a.ArriveMs = a.SentMs + float64(data[2]%64)/4
			if data[2] == 255 {
				a.SentMs, a.ArriveMs = 0, math.Copysign(0, -1)
			}
			r := retained{a, []float64{0, 4, 10}[data[3]>>3%3]}
			g.AcceptWithin(r.Arrival, r.freshMs)
			fed = append(fed, r)
			data = data[4:]
		}
	})
}
