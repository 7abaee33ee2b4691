// Package apps holds the benchmark applications of the paper's evaluation,
// written in TICS-C:
//
//   - BC: MiBench-style bitcount with seven methods including a recursive
//     one, cross-verified (§5.3).
//   - CF: a cuckoo filter over pseudo-random keys with insert/lookup/
//     delete and sequence recovery (§5.3).
//   - AR: activity recognition — windowed three-axis accelerometer, mean/
//     stddev features, nearest-centroid classification — in a TICS
//     time-annotated version and a legacy manual-time version (§5.2).
//   - GHM: greenhouse monitoring in plain-C and TinyOS-event styles
//     (Table 1).
//   - Swap/Bubble/Timekeeping: the user-study programs (Figure 10).
//
// Each entry carries the legacy source, optional variants, and the hand
// task decomposition (with MayFly graph) used by the task-based baselines —
// the same porting work the paper describes as the cost of task models.
package apps

import "repro/internal/taskrt"

// App is one benchmark application.
type App struct {
	Name string
	// Source is the legacy/annotated TICS-C program (runs unmodified
	// under plain, TICS, Mementos and — if recursion-free — Chinchilla).
	Source string
	// ManualSource is the manual-time variant (AR only): the same logic
	// with hand-rolled timestamps instead of TICS annotations.
	ManualSource string
	// TaskSource is the hand-ported task decomposition, if one exists.
	TaskSource string
	// Tasks maps task ids to function names in TaskSource.
	Tasks []string
	// Edges is the task graph for TaskSource (used as the MayFly graph
	// unless a MayFly-specific port exists below).
	Edges []taskrt.Edge
	// MayflyTaskSource/MayflyTasks/MayflyEdges give an alternative,
	// loop-free decomposition for MayFly when the natural port's graph is
	// cyclic. Apps that are genuinely inexpressible in MayFly (CF) leave
	// these empty so the cyclic graph is rejected.
	MayflyTaskSource string
	MayflyTasks      []string
	MayflyEdges      []taskrt.Edge
	// Marks documents the mark-counter ids the app uses.
	Marks map[int]string
}

// ForMayfly returns the task port to use with MayFly: the dedicated
// loop-free decomposition if one exists, else the natural port.
func (a App) ForMayfly() (source string, tasks []string, edges []taskrt.Edge) {
	if a.MayflyTaskSource != "" {
		return a.MayflyTaskSource, a.MayflyTasks, a.MayflyEdges
	}
	return a.TaskSource, a.Tasks, a.Edges
}

// All returns the benchmark registry in the paper's order.
func All() []App { return []App{BC(), CF(), AR(), GHMPlain(), GHMTinyOS()} }

// Every returns every app ByName knows: All plus the small programs and
// Chinchilla's recursion-free BC.
func Every() []App { return append(All(), Swap(), Bubble(), Timekeeping(), BCNoRecursion()) }

// ByName looks an app up.
func ByName(name string) (App, bool) {
	for _, a := range Every() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
