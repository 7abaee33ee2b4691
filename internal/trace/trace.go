// Package trace implements the time-consistency violation detectors
// behind Table 2. It watches a machine's program-order stores and mark
// events, follows commit points and restores on the machine's recorder,
// and classifies the three violation types of Figure 3:
//
//   - Time/data misalignment (3c): at consume time, a sensor element's
//     stored timestamp differs from the device time of its actual store
//     by more than a threshold — the timestamp and the data were split by
//     a reboot.
//   - Data expiration (3d): at consume time, an element is older than the
//     application's freshness window.
//   - Timely branching (3b): both arms of a time-predicated branch left
//     committed evidence for the same decision instance (read from the
//     final memory with CountDualBranches).
//
// Detection is host-side and non-invasive: it never perturbs the device's
// cycle accounting.
package trace

import (
	"errors"
	"fmt"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Pair binds a sensor-data global to its timestamp store.
type Pair struct {
	// DataName is the global holding sensed values.
	DataName string
	// TSName is the global holding hand-written timestamps; empty means
	// the data global is @expires_after-annotated and the compiler's
	// shadow slots are used.
	TSName string
}

// Config declares what to watch.
type Config struct {
	Pairs       []Pair
	ConsumeMark int32 // mark id emitted when the data is consumed
	FreshnessMs int64 // application freshness window (expiration)
	AlignMs     int64 // tolerated timestamp/data skew (misalignment)
}

// Counts holds one violation class's tally.
type Counts struct {
	Potential int64
	Observed  int64
}

// Detector is attached to one machine run.
type Detector struct {
	cfg Config
	m   *vm.Machine

	ranges []pairRange

	lastStore map[uint32]int64 // data element address → device ms of last store

	// Committed tallies. Events observed between commit points are
	// pending: a commit commits them, a restore discards them (the runtime
	// rolled the corresponding execution back), so replayed code does not
	// double-count and aborted consumes do not count at all.
	Misalign Counts
	Expired  Counts

	pending struct {
		misalignPot, misalignObs int64
		expiredPot, expiredObs   int64
	}
}

type pairRange struct {
	dataBase uint32
	tsBase   uint32
	elemSize int
	count    int
}

// Attach wires a detector to a machine built from img. It must be called
// before Run, on a machine with a recorder attached: the detector follows
// commit points and restores as a sink on its event stream.
func Attach(m *vm.Machine, img *link.Image, cfg Config) (*Detector, error) {
	rec := m.Recorder()
	if rec == nil {
		return nil, errors.New("trace: machine has no recorder attached (the detector is an event-stream sink)")
	}
	d := &Detector{cfg: cfg, m: m, lastStore: map[uint32]int64{}}
	for _, p := range cfg.Pairs {
		g, ok := img.Program.Global(p.DataName)
		if !ok {
			return nil, fmt.Errorf("trace: no global %q", p.DataName)
		}
		r := pairRange{
			dataBase: img.GlobalsBase + g.Offset,
			elemSize: g.ElemSize,
			count:    g.Size / g.ElemSize,
		}
		if p.TSName == "" {
			if g.ExpiresAfterMs < 0 {
				return nil, fmt.Errorf("trace: %q has no annotation and no TSName", p.DataName)
			}
			r.tsBase = img.GlobalsBase + g.TSOffset
		} else {
			ts, ok := img.Program.Global(p.TSName)
			if !ok {
				return nil, fmt.Errorf("trace: no timestamp global %q", p.TSName)
			}
			if ts.Size/ts.ElemSize < r.count {
				return nil, fmt.Errorf("trace: %q has %d slots for %d elements", p.TSName, ts.Size/ts.ElemSize, r.count)
			}
			r.tsBase = img.GlobalsBase + ts.Offset
		}
		d.ranges = append(d.ranges, r)
	}
	m.ObserveStores(d.onStore)
	m.OnMark = d.onMark
	rec.AddSink(d)
	return d, nil
}

// OnEvent implements obs.Sink: a commit point (a checkpoint commit, or a
// task transition under a task-based runtime) commits the pending
// tallies and a restore discards them.
func (d *Detector) OnEvent(_ int64, ev obs.Event) {
	switch ev.Kind {
	case obs.EvCheckpointCommit, obs.EvTaskCommit:
		d.commit()
	case obs.EvRestore:
		d.discard()
	}
}

// commit moves pending tallies into the committed counts.
func (d *Detector) commit() {
	d.Misalign.Potential += d.pending.misalignPot
	d.Misalign.Observed += d.pending.misalignObs
	d.Expired.Potential += d.pending.expiredPot
	d.Expired.Observed += d.pending.expiredObs
	d.pending.misalignPot, d.pending.misalignObs = 0, 0
	d.pending.expiredPot, d.pending.expiredObs = 0, 0
}

// discard drops pending tallies: the runtime rolled that execution back.
func (d *Detector) discard() {
	d.pending.misalignPot, d.pending.misalignObs = 0, 0
	d.pending.expiredPot, d.pending.expiredObs = 0, 0
}

// Finish commits trailing events (call after the run completes).
func (d *Detector) Finish() { d.commit() }

func (d *Detector) onStore(addr uint32, size int, val uint32, deviceMs int64) {
	for _, r := range d.ranges {
		end := r.dataBase + uint32(r.elemSize*r.count)
		if addr >= r.dataBase && addr < end {
			elem := (addr - r.dataBase) / uint32(r.elemSize)
			d.lastStore[r.dataBase+elem*uint32(r.elemSize)] = deviceMs
			// Every sample is a potential misalignment and a potential
			// expiration (the paper's "potential count").
			d.pending.misalignPot++
			d.pending.expiredPot++
			return
		}
	}
}

func (d *Detector) onMark(id int32, deviceMs int64) {
	if id != d.cfg.ConsumeMark {
		return
	}
	for _, r := range d.ranges {
		for e := 0; e < r.count; e++ {
			dataAddr := r.dataBase + uint32(e*r.elemSize)
			stored, ok := d.lastStore[dataAddr]
			if !ok {
				continue
			}
			ts := int64(d.m.Mem.ReadInt(r.tsBase + uint32(4*e)))
			if abs64(ts-stored) > d.cfg.AlignMs {
				d.pending.misalignObs++
			}
			if d.cfg.FreshnessMs > 0 && deviceMs-ts > d.cfg.FreshnessMs {
				d.pending.expiredObs++
			}
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// CountDualBranches scans the final memory for timely-branch evidence:
// two int arrays written at the end of the two arms of a time-predicated
// branch. A decision instance that committed evidence in both arms is a
// violation; an instance with any evidence is a potential (a decision that
// actually ran).
func CountDualBranches(m *vm.Machine, img *link.Image, aName, bName string) (Counts, error) {
	ga, ok := img.Program.Global(aName)
	if !ok {
		return Counts{}, fmt.Errorf("trace: no global %q", aName)
	}
	gb, ok := img.Program.Global(bName)
	if !ok {
		return Counts{}, fmt.Errorf("trace: no global %q", bName)
	}
	n := ga.Size / ga.ElemSize
	if bn := gb.Size / gb.ElemSize; bn < n {
		n = bn
	}
	var c Counts
	for i := 0; i < n; i++ {
		a := m.Mem.ReadInt(img.GlobalsBase + ga.Offset + uint32(4*i))
		b := m.Mem.ReadInt(img.GlobalsBase + gb.Offset + uint32(4*i))
		if a != 0 || b != 0 {
			c.Potential++
		}
		if a != 0 && b != 0 {
			c.Observed++
		}
	}
	return c, nil
}
