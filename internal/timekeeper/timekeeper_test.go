package timekeeper_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timekeeper"
)

// The machine adds on-times to its estimate itself and each outage as
// OffEstimate answers; these tests make those adds by hand.

func TestPerfect(t *testing.T) {
	k := &timekeeper.Perfect{}
	if est := 10.5 + k.OffEstimate(100); int64(est) != 110 {
		t.Fatalf("perfect: %v", est)
	}
}

func TestRTCQuantizes(t *testing.T) {
	k := &timekeeper.RTC{ResolutionMs: 10}
	off := k.OffEstimate(25) // quantized to 20
	if off != 20 {
		t.Fatalf("rtc: 25 ms off estimated as %v", off)
	}
	if est := off + 5; int64(est) != 25 {
		t.Fatalf("rtc: %v", est)
	}
}

// TestRemanenceErrorBounded: the off-time estimate stays within the
// configured fractional error (up to the saturation horizon).
func TestRemanenceErrorBounded(t *testing.T) {
	check := func(seed uint64, offRaw uint16) bool {
		off := float64(offRaw%5000) + 1
		k := timekeeper.NewRemanence(0.1, 10_000, seed)
		est := float64(int64(k.OffEstimate(off)))
		return est >= off*0.9-1 && est <= off*1.1+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRemanenceSaturates(t *testing.T) {
	k := timekeeper.NewRemanence(0, 1000, 1)
	// far past the decay horizon
	if got := float64(int64(k.OffEstimate(50_000))); math.Abs(got-1000) > 1 {
		t.Fatalf("saturation: estimated %f for a 50 s outage", got)
	}
}

func TestRemanenceDeterministic(t *testing.T) {
	a := timekeeper.NewRemanence(0.2, 5000, 7)
	b := timekeeper.NewRemanence(0.2, 5000, 7)
	for i := 0; i < 20; i++ {
		ea, eb := a.OffEstimate(float64(10*(i+1))), b.OffEstimate(float64(10*(i+1)))
		if math.Float64bits(ea) != math.Float64bits(eb) {
			t.Fatalf("nondeterministic remanence keeper: outage %d estimated %v and %v", i, ea, eb)
		}
	}
}
