package vm_test

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/replay"
)

// randomSchedule draws a power schedule of up to five windows from x.
func randomSchedule(x uint64) string {
	rng := rand.New(rand.NewPCG(x, 17))
	parts := make([]string, rng.IntN(6))
	for i := range parts {
		parts[i] = fmt.Sprintf("%d@%g", 1+rng.Int64N(40_000), float64(rng.IntN(400))/8)
	}
	return "sched:" + strings.Join(parts, ",")
}

// FuzzStraightRuns runs a random program (apps.Random) on a protected or
// plain runtime under a random power schedule, timer checkpoints, a wall
// budget and a boundary hook, once with straight-line runs and once
// single-stepped, and requires the same Result (floats bit for bit),
// memory, event stream, profile and hook states.
func FuzzStraightRuns(f *testing.F) {
	f.Add(int64(0), uint64(1), uint8(4), uint16(400), uint8(0), uint32(9_000))
	f.Add(int64(7), uint64(99), uint8(1), uint16(90), uint8(1), uint32(40_001))
	f.Add(int64(13), uint64(5), uint8(0), uint16(0), uint8(2), uint32(1))
	f.Add(int64(21), uint64(8), uint8(3), uint16(1500), uint8(3), uint32(77_777))
	f.Fuzz(func(t *testing.T, seed int64, sched uint64, timer uint8, wall uint16, rt uint8, cut uint32) {
		runtimes := []string{"tics", "plain", "mementos", "chinchilla"}
		spec := replay.Spec{
			Source:    apps.Random(seed),
			Runtime:   runtimes[int(rt)%len(runtimes)],
			Power:     randomSchedule(sched),
			Seed:      1,
			TimerMs:   float64(timer%8) / 2,
			WallMs:    float64(wall % 2000),
			MaxCycles: 2_000_000,
		}
		img, _, err := replay.BuildImage(spec)
		if err != nil {
			t.Fatalf("build: %v\n%s", err, spec.Source)
		}
		what := fmt.Sprintf("seed %d %s %s timer %gms wall %gms", seed, spec.Runtime, spec.Power, spec.TimerMs, spec.WallMs)
		twoWays(t, what, func() snapRun { return newSnapRun(t, spec, img, spec.Power) }, []int64{int64(cut % 200_000)})
	})
}
