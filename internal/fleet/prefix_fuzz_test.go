package fleet

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/replay"
)

// FuzzFleetPrefix runs a 4-device fleet of a random program
// (apps.Random) on a protected or plain runtime, under harvested, failing,
// continuous or scheduled power — the failing and scheduled first
// windows differ per device — with a perfect, RTC or per-device-seeded
// remanence clock, timer checkpoints and a wall budget. The devices
// start from the shared prefix, and each must equal its cold run
// (perDeviceReference).
func FuzzFleetPrefix(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint16(30_000), uint8(2), uint16(60), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint16(3_000), uint8(0), uint16(300), uint8(1))
	f.Add(int64(13), uint8(2), uint8(2), uint16(0), uint8(1), uint16(25), uint8(0))
	f.Add(int64(21), uint8(3), uint8(3), uint16(9_000), uint8(2), uint16(120), uint8(3))
	f.Fuzz(func(t *testing.T, prog int64, rt, pw uint8, window uint16, clock uint8, wall uint16, timer uint8) {
		runtimes := []string{"tics", "plain", "mementos", "chinchilla"}
		clocks := []string{"perfect", "rtc:5", "remanence:0.5,5000"}
		cfg := Config{
			Devices: 4, Workers: 2, Wave: 2,
			Source:    apps.Random(prog),
			Runtime:   runtimes[int(rt)%len(runtimes)],
			Clock:     clocks[int(clock)%len(clocks)],
			Seed:      uint64(prog),
			TimerMs:   float64(timer%8) / 2,
			WallMs:    5 + float64(wall%300),
			MaxCycles: 2_000_000,
			Link:      LinkParams{DelayMinMs: 1, DelayMaxMs: 5},
		}
		w := 1 + int(window)
		power := func(dev int) string {
			switch pw % 4 {
			case 0:
				return fmt.Sprintf("harvest:%d,800", 1000+w)
			case 1:
				return fmt.Sprintf("fail:%d,5", w+1500*dev)
			case 2:
				return "continuous"
			}
			return fmt.Sprintf("sched:%d@5,%d@5", 1+w*(dev+1)/4, w)
		}
		spec := func(dev int) replay.Spec {
			s := cfg.DeviceSpec(dev)
			s.Power = power(dev)
			return s
		}
		rep, err := run(cfg, spec)
		if err != nil {
			t.Fatalf("%v\n%s", err, cfg.Source)
		}
		perDeviceReference(t, cfg, spec, rep)
	})
}
