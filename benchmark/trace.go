package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one round or request share a trace id.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run skips every span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, trace string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span that end closes; children may name it as parent
// in between.
func (t *tracer) begin(name, trace string, parent int64) int64 {
	now := time.Now()
	return t.add(name, trace, parent, now, now)
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is the self-time table's row for one span name.
type layerRow struct {
	name       string
	count      int
	total, own int64 // ns
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover; children of one span may
// overlap (two workers), so the covered part is their union.
func (t *tracer) selfTimes() []layerRow {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range t.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		row.count++
		row.total += dur
		row.own += dur - covered(s, kids[s.ID])
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].own > out[j].own })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// printTable writes the per-layer self-time table.
func (t *tracer) printTable(w io.Writer, workload string) {
	rows := t.selfTimes()
	var all int64
	for _, r := range rows {
		all += r.own
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s layer %-28s count=%-7d total_ms=%-12.3f self_ms=%-12.3f self_pct=%.1f\n",
			workload, r.name, r.count, float64(r.total)/1e6, float64(r.own)/1e6, 100*ratio(float64(r.own), float64(all)))
	}
}
