package experiments

import (
	"fmt"
	"sort"
	"strings"

	tics "repro"
	"repro/internal/replay"
)

// Fig8Event is one entry of the AR execution trace.
type Fig8Event struct {
	TrueMs   float64
	DeviceMs int64
	What     string
}

// Fig8 regenerates the Figure 8 timeline: the annotated AR application on
// harvested power, showing sampled windows, fresh windows classified,
// stale windows discarded by @expires/catch, and @timely alerts.
func Fig8() (Report, error) {
	// Milder harvesting than the Table 2 stress run: recharge times
	// straddle the 200 ms freshness window, so the trace shows both fresh
	// windows classified and stale windows discarded.
	_, m, err := machine(replay.Spec{App: "ar", Runtime: string(tics.RTTICS),
		Power: "harvest:40000,450", Seed: 8, TimerMs: 10, MaxCycles: 3_000_000_000}, nil, nil)
	if err != nil {
		return Report{}, err
	}
	var events []Fig8Event
	m.OnMark = func(id int32, deviceMs int64) {
		what := map[int32]string{
			0: "window sampled",
			3: "fresh data -> featurize/classify",
			4: "EXPIRED window discarded (catch)",
		}[id]
		if what != "" {
			events = append(events, Fig8Event{TrueMs: m.TrueNowMs(), DeviceMs: deviceMs, What: what})
		}
	}
	res, err := m.Run()
	if err != nil {
		return Report{}, err
	}
	for _, s := range res.SendLog {
		what := fmt.Sprintf("send activity=%d", s.Value)
		switch {
		case s.Value >= 2000:
			what = fmt.Sprintf("LATE alert suppressed path (activity=%d)", s.Value-2000)
		case s.Value >= 1000:
			what = fmt.Sprintf("TIMELY ALERT (activity=%d, within 200 ms)", s.Value-1000)
		}
		events = append(events, Fig8Event{TrueMs: s.TrueMs, DeviceMs: s.EstMs, What: what})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].TrueMs < events[j].TrueMs })

	// Committed round outcomes come from the mark counters in non-volatile
	// memory (the raw event stream above includes replays around failures).
	fresh := int(at(res.MarkCounts, 3))
	stale := int(at(res.MarkCounts, 4))
	alerts := 0
	var b strings.Builder
	b.WriteString("Figure 8 — timely execution trace of the AR application on harvested power.\n")
	b.WriteString(fmt.Sprintf("(power failures: %d, checkpoints: %d)\n\n", res.Failures, res.TotalCheckpoints))
	b.WriteString(fmt.Sprintf("%10s  %s\n", "t (ms)", "event"))
	for _, e := range events {
		b.WriteString(fmt.Sprintf("%10.0f  %s\n", e.TrueMs, e.What))
		if strings.HasPrefix(e.What, "TIMELY") {
			alerts++
		}
	}
	b.WriteString(fmt.Sprintf("\nSummary: %d fresh windows processed, %d stale windows discarded, %d timely alerts.\n",
		fresh, stale, alerts))
	return Report{
		ID:    "fig8",
		Title: "Timely execution of the AR application",
		Text:  b.String(),
		Data:  map[string]any{"events": events, "fresh": fresh, "stale": stale, "alerts": alerts},
	}, nil
}
