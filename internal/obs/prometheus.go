package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric family, counters
// and gauges as single samples (a labeled gauge family as one sample per
// label set), histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`. Output is deterministic (see sorted) so it can be
// golden-file tested and diffed across runs.
func (g *Registry) WritePrometheus(w io.Writer) error {
	return g.WritePrometheusLabeled(w, nil)
}

// WritePrometheusLabeled is WritePrometheus with a fixed label set
// attached to every sample — the fleet exporter uses it to shard
// per-device registries (e.g. {shard="dev42"}) next to the merged
// totals. The fixed labels are rendered in sorted key order ahead of a
// series' own labels; histogram buckets keep `le` as the last label. A
// nil or empty map degrades to the unlabeled format exactly.
func (g *Registry) WritePrometheusLabeled(w io.Writer, labels map[string]string) error {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fixed := make([]string, len(keys), len(keys)+1)
	for i, k := range keys {
		fixed[i] = labelPair(k, labels[k])
	}
	bw := bufio.NewWriter(w)
	ms := g.sorted()
	for i, m := range ms {
		family := g.family(m.name)
		name := promName(family)
		if i == 0 || m.kind() != ms[i-1].kind() || family != g.family(ms[i-1].name) {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, promTypes[m.kind()])
		}
		base := labelSet(append(fixed, g.labels[m.name])...)
		switch {
		case m.c != nil:
			fmt.Fprintf(bw, "%s%s %d\n", name, base, *m.c)
		case m.g != nil:
			fmt.Fprintf(bw, "%s%s %s\n", name, base, promFloat(m.g.v))
		default:
			var cum int64
			for i, c := range m.h.Counts {
				cum += c
				le := "+Inf"
				if i < len(m.h.Bounds) {
					le = promFloat(m.h.Bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", name, labelSet(append(fixed, labelPair("le", le))...), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", name, base, promFloat(m.h.Sum), name, base, m.h.Count)
		}
	}
	return bw.Flush()
}

// labelPair renders one label as `key="value"`.
func labelPair(key, value string) string {
	return fmt.Sprintf("%s=%q", promName(key), value)
}

// labelSet renders label pairs as `{p1,p2}`, skipping empty ones; no
// pairs at all render as the empty string, so unlabeled samples keep
// the historical format.
func labelSet(pairs ...string) string {
	pairs = slices.DeleteFunc(slices.Clone(pairs), func(p string) bool { return p == "" })
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// promName maps a registry key onto the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing anything else with '_'.
func promName(s string) string {
	out := []byte(s)
	for i, c := range out {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
