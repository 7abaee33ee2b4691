package experiments

import (
	"fmt"

	tics "repro"
	"repro/internal/apps"
	"repro/internal/replay"
)

// Table1Row is one (program, intermittency, runtime) measurement.
type Table1Row struct {
	Rate       float64
	Variant    string // "plain C", "plain C + TICS", "TinyOS", "TinyOS + TICS"
	Counts     []int64
	Consistent bool
}

// Table1 reproduces the Table 1 experiment: the greenhouse-monitoring
// application (plain-C and TinyOS-event styles), with and without TICS,
// driven by pre-programmed reset patterns at 4%, 48% and 100%
// intermittency rate, for a fixed wall-clock budget. A run is correct when
// every routine executed the same number of times (lock-step counts).
func Table1() (Report, error) {
	const wallBudgetMs = 30_000
	rates := []float64{0.04, 0.48, 1.00}
	variants := []struct {
		label   string
		app     apps.App
		runtime tics.RuntimeKind
	}{
		{"plain C", apps.GHMPlain(), tics.RTPlain},
		{"plain C + TICS", apps.GHMPlain(), tics.RTTICS},
		{"TinyOS", apps.GHMTinyOS(), tics.RTPlain},
		{"TinyOS + TICS", apps.GHMTinyOS(), tics.RTTICS},
	}

	tbl := &table{header: []string{"intermittency", "program", "moisture", "temp", "compute", "send", "consistent"}}
	var rows []Table1Row
	for _, rate := range rates {
		for _, v := range variants {
			_, m, err := machine(replay.Spec{App: v.app.Name, Runtime: string(v.runtime), Seed: 7,
				TimerMs: 10, WallMs: wallBudgetMs, MaxCycles: 1_000_000_000}, intermittencyTrace(rate), nil)
			if err != nil {
				return Report{}, err
			}
			res, err := m.Run()
			if err != nil {
				return Report{}, err
			}
			row := Table1Row{
				Rate:       rate,
				Variant:    v.label,
				Counts:     res.MarkCounts,
				Consistent: len(res.MarkCounts) == 4 && spread(res.MarkCounts) <= 1,
			}
			rows = append(rows, row)
			tbl.add(
				fmt.Sprintf("%.0f%%", rate*100),
				v.label,
				fmt.Sprintf("%d", at(row.Counts, 0)),
				fmt.Sprintf("%d", at(row.Counts, 1)),
				fmt.Sprintf("%d", at(row.Counts, 2)),
				fmt.Sprintf("%d", at(row.Counts, 3)),
				checkmark(row.Consistent),
			)
		}
	}

	text := "Table 1 — GHM routine executions over a fixed " +
		fmt.Sprintf("%ds wall budget under pre-programmed reset patterns.\n", wallBudgetMs/1000) +
		"Paper shape: only the TICS variants stay consistent below 100% intermittency.\n\n" + tbl.String()
	return Report{
		ID:    "table1",
		Title: "GHM legacy code under intermittent power",
		Text:  text,
		Data:  map[string]any{"rows": rows},
	}, nil
}

func at(xs []int64, i int) int64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
