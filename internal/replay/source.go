package replay

import "repro/internal/power"

// WindowRec is one powered window as actually drawn from a power source:
// the cycles granted and the off-time that followed. A recorded window
// sequence replaces the source's own randomness on replay, which is what
// makes harvester-powered runs bit-reproducible across revisions. Replay
// feeds it back as a power.Schedule: the recorded windows verbatim, then
// continuous power if a replay outlives the recording (it should not, for
// a faithful re-execution of the same program).
type WindowRec = power.SchedWindow

// RecordingSource wraps a power source and logs every window it grants.
type RecordingSource struct {
	Inner   power.Source
	Windows []WindowRec
}

func (r *RecordingSource) Name() string { return r.Inner.Name() }

func (r *RecordingSource) NextWindow() (int64, float64) {
	c, off := r.Inner.NextWindow()
	r.Windows = append(r.Windows, WindowRec{Cycles: c, OffMs: off})
	return c, off
}
