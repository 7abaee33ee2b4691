package sensors_test

import (
	"testing"

	"repro/internal/sensors"
)

func TestDeterministic(t *testing.T) {
	a, b := sensors.NewBank(3), sensors.NewBank(3)
	for ms := 0.0; ms < 1000; ms += 7.3 {
		for id := int32(0); id <= 4; id++ {
			if a.Sense(id, ms) != b.Sense(id, ms) {
				t.Fatalf("nondeterministic at id=%d t=%f", id, ms)
			}
		}
	}
}

func TestAccelRegimes(t *testing.T) {
	b := sensors.NewBank(5)
	spread := func(from, to float64) int32 {
		min, max := int32(1<<30), int32(-(1 << 30))
		for ms := from; ms < to; ms += 5 {
			v := b.Sense(sensors.AccelX, ms)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max - min
	}
	still := spread(0, 2900)     // first regime: stationary
	moving := spread(3100, 5900) // second regime: moving
	if !b.Moving(4000) || b.Moving(1000) {
		t.Fatal("regime schedule wrong")
	}
	if moving < 4*still {
		t.Fatalf("moving spread %d not clearly above still %d", moving, still)
	}
}

func TestGravityOnZ(t *testing.T) {
	b := sensors.NewBank(1)
	z := b.Sense(sensors.AccelZ, 100)
	x := b.Sense(sensors.AccelX, 100)
	if z < 900 || z > 1100 {
		t.Fatalf("z=%d should sit near 1000 counts when still", z)
	}
	if x < -100 || x > 100 {
		t.Fatalf("x=%d should be near zero when still", x)
	}
}

func TestEnvironmentChannels(t *testing.T) {
	b := sensors.NewBank(2)
	m := b.Sense(sensors.Moisture, 1000)
	if m < 500 || m > 900 {
		t.Fatalf("moisture %d out of plausible range", m)
	}
	temp := b.Sense(sensors.Temperature, 1000)
	if temp < 180 || temp > 320 {
		t.Fatalf("temperature %d (tenths C) out of range", temp)
	}
}

func TestScripted(t *testing.T) {
	s := sensors.NewScripted(map[int32][]int32{3: {10, 20, 30}})
	got := []int32{s.Sense(3, 0), s.Sense(3, 0), s.Sense(3, 0), s.Sense(3, 0)}
	want := []int32{10, 20, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scripted: %v", got)
		}
	}
	if s.Sense(9, 0) != 0 {
		t.Fatal("empty channel should read zero")
	}
}
