// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns a Report with the rendered
// rows/series in the paper's format plus structured data for tests and
// EXPERIMENTS.md. The cmd/ticsbench binary is a thin driver over this
// package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	tics "repro"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/vm"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Text  string
	// Data carries experiment-specific structured results keyed by a
	// stable name, for tests and benchmarks.
	Data map[string]any
}

// Runner regenerates one experiment.
type Runner func() (Report, error)

// Entry describes one registered experiment.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

// Registry lists every experiment in paper order.
func Registry() []Entry {
	return []Entry{
		{"table1", "GHM legacy code under intermittent power", Table1},
		{"table2", "Time-consistency violations in AR", Table2},
		{"table3", "Memory consumption (InK / Chinchilla / TICS)", Table3},
		{"table4", "TICS runtime-operation overheads", Table4},
		{"table5", "Programming-model feature matrix", Table5},
		{"fig8", "Timely execution of the AR application", Fig8},
		{"fig9", "Benchmark performance", Fig9},
		{"fig10", "User study", Fig10},
		{"ablations", "Design-choice ablation studies", Ablations},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Entry, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// RunAll executes every experiment.
func RunAll() ([]Report, error) {
	var out []Report
	for _, e := range Registry() {
		r, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// machine builds spec's image and a machine for it through
// replay.Spec.Machine, the one spec → machine path, so an experiment
// point is a run ticsrun, mc and record/replay can name. A non-nil src
// replaces the spec's power (Table 1's looping trace, which the power
// grammar cannot name); rec may be nil.
func machine(spec replay.Spec, src power.Source, rec *obs.Recorder) (*tics.Image, *vm.Machine, error) {
	img, _, err := replay.BuildImage(spec)
	if err != nil {
		return nil, nil, err
	}
	m, err := spec.Machine(img, nil, src, rec)
	return img, m, err
}

// intermittencyTrace builds the pre-programmed reset pattern used by the
// Table 1 runs: a repeating mix of short and long powered bursts whose
// duty cycle is rate. rate ≥ 1 returns continuous power.
func intermittencyTrace(rate float64) power.Source {
	if rate >= 1 {
		return power.Continuous{}
	}
	pattern := []float64{12, 35, 8, 50, 20, 6, 28, 90} // on-times, ms
	var ws []power.Window
	for _, on := range pattern {
		ws = append(ws, power.Window{OnMs: on, OffMs: on * (1 - rate) / rate})
	}
	return &power.Trace{Windows: ws, Loop: true}
}

// runtimeLabel renders a runtime kind the way the paper's tables do.
func runtimeLabel(k tics.RuntimeKind) string {
	switch k {
	case tics.RTPlain:
		return "plain C"
	case tics.RTTICS:
		return "TICS"
	case tics.RTMementos:
		return "naive (MementOS-like)"
	case tics.RTChinchilla:
		return "Chinchilla"
	case tics.RTAlpaca:
		return "Alpaca"
	case tics.RTInK:
		return "InK"
	case tics.RTMayFly:
		return "MayFly"
	}
	return string(k)
}

// spread returns max-min over counts.
func spread(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}

func checkmark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// sortedKeys returns map keys in order (stable rendering).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// table is a tiny fixed-width text-table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
