package replay

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/power"
	"repro/internal/timekeeper"
)

// ParsePower builds a power source from ticsrun's -power syntax:
// continuous | duty:RATE | fail:CYCLES[,OFF_MS] | sched:C@OFF,... |
// harvest:CAP,RATE. fail's off-time defaults to 20 ms. The same string
// goes into a replay Spec, which is why it lives here.
func ParsePower(arg string, seed uint64) (power.Source, error) {
	switch {
	case arg == "continuous":
		return power.Continuous{}, nil
	case strings.HasPrefix(arg, "duty:"):
		rate, err := strconv.ParseFloat(arg[5:], 64)
		if err != nil {
			return nil, err
		}
		return &power.DutyCycle{Rate: rate, OnMs: 40}, nil
	case strings.HasPrefix(arg, "fail:"):
		cycles, offMs, hasOff := strings.Cut(arg[5:], ",")
		n, err := strconv.ParseInt(cycles, 10, 64)
		if err != nil {
			return nil, err
		}
		off := 20.0
		if hasOff {
			if off, err = strconv.ParseFloat(offMs, 64); err != nil {
				return nil, err
			}
		}
		return &power.FailEvery{Cycles: n, OffMs: off}, nil
	case strings.HasPrefix(arg, "sched:"):
		// Explicit cycle-exact reboot schedule (internal/mc counterexamples).
		return power.ParseSchedule(arg)
	case strings.HasPrefix(arg, "harvest:"):
		cap, rate, err := pair(strings.Split(arg[8:], ","), "harvest wants CAP,RATE")
		if err != nil {
			return nil, err
		}
		return power.NewHarvester(cap, rate, 0.8, seed), nil
	}
	return nil, fmt.Errorf("unknown power source %q", arg)
}

// ParseClock builds a persistent timekeeper from ticsrun's -clock
// syntax: perfect | rtc:RES_MS | remanence:ERR,MAX_MS[,SEED]. The
// remanence timer draws its error from SEED when given, else from seed.
func ParseClock(arg string, seed uint64) (timekeeper.Keeper, error) {
	switch {
	case arg == "perfect":
		return &timekeeper.Perfect{}, nil
	case strings.HasPrefix(arg, "rtc:"):
		res, err := strconv.ParseFloat(arg[4:], 64)
		if err != nil {
			return nil, err
		}
		return &timekeeper.RTC{ResolutionMs: res}, nil
	case strings.HasPrefix(arg, "remanence:"):
		parts := strings.Split(arg[10:], ",")
		if len(parts) == 3 {
			s, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil {
				return nil, err
			}
			parts, seed = parts[:2], s
		}
		errFrac, max, err := pair(parts, "remanence wants ERR,MAX_MS[,SEED]")
		if err != nil {
			return nil, err
		}
		return timekeeper.NewRemanence(errFrac, max, seed), nil
	}
	return nil, fmt.Errorf("unknown clock %q", arg)
}

// pair parses exactly two numbers; usage is the error for any other
// count.
func pair(parts []string, usage string) (float64, float64, error) {
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%s", usage)
	}
	a, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.ParseFloat(parts[1], 64)
	return a, b, err
}
