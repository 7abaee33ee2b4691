package timekeeper_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timekeeper"
)

func TestPerfect(t *testing.T) {
	k := &timekeeper.Perfect{}
	k.AdvanceOn(10.5)
	k.AdvanceOff(100)
	if k.Now() != 110 {
		t.Fatalf("perfect: %d", k.Now())
	}
}

func TestRTCQuantizes(t *testing.T) {
	k := &timekeeper.RTC{ResolutionMs: 10}
	k.AdvanceOff(25) // quantized to 20
	k.AdvanceOn(5)
	if k.Now() != 25 {
		t.Fatalf("rtc: %d", k.Now())
	}
}

// TestRemanenceErrorBounded: the off-time estimate stays within the
// configured fractional error (up to the saturation horizon) and on-time
// is exact.
func TestRemanenceErrorBounded(t *testing.T) {
	check := func(seed uint64, offRaw uint16) bool {
		off := float64(offRaw%5000) + 1
		k := timekeeper.NewRemanence(0.1, 10_000, seed)
		k.AdvanceOff(off)
		est := float64(k.Now())
		return est >= off*0.9-1 && est <= off*1.1+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRemanenceSaturates(t *testing.T) {
	k := timekeeper.NewRemanence(0, 1000, 1)
	k.AdvanceOff(50_000) // far past the decay horizon
	if got := float64(k.Now()); math.Abs(got-1000) > 1 {
		t.Fatalf("saturation: estimated %f for a 50 s outage", got)
	}
}

func TestRemanenceDeterministic(t *testing.T) {
	a := timekeeper.NewRemanence(0.2, 5000, 7)
	b := timekeeper.NewRemanence(0.2, 5000, 7)
	for i := 0; i < 20; i++ {
		a.AdvanceOff(float64(10 * (i + 1)))
		b.AdvanceOff(float64(10 * (i + 1)))
	}
	if a.Now() != b.Now() {
		t.Fatal("nondeterministic remanence keeper")
	}
}
