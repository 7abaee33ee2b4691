package fleet

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Anomaly detection: a deterministic outlier pass over per-device
// outcomes, run once the gateway has seen every arrival. Three detectors, each aimed
// at a failure mode the paper (or its evaluation) names:
//
//   - Stragglers: devices whose consumed cycles or wall time sit k MADs
//     above the fleet median — the long tail that dominates fleet wall
//     time once N reaches 10⁵.
//   - Livelock / non-progress suspects: devices that spent energy but
//     committed nothing (commit rate ≈ 0 with spend > 0) — the Figure-9
//     re-execution collapse, where checkpoint cost exceeds the power
//     window and the device re-executes the same region forever.
//   - Freshness-loss hotspots: devices whose expired-send ratio at the
//     gateway is an outlier — their data arrives, but too stale to act
//     on, the paper's central time-consistency hazard.
//
// Everything is computed from index-ordered per-device data with exact
// arithmetic on sorted copies, so the anomaly list is identical for any
// worker count.

// Anomaly flags one device for one reason.
type Anomaly struct {
	Dev  int    `json:"dev"`
	Kind string `json:"kind"` // AnomalyStraggler*, AnomalyLivelock, AnomalyFreshness
	// Value is the device's measurement, Threshold the cut it exceeded.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail"`
}

// Anomaly kinds.
const (
	AnomalyStragglerCycles = "straggler-cycles"
	AnomalyStragglerWall   = "straggler-wall"
	AnomalyLivelock        = "livelock"
	AnomalyFreshness       = "freshness-hotspot"
)

// DefaultAnomalyK is the default MAD multiplier; 3.5 is the classical
// modified-z-score cut (Iglewicz & Hoaglin).
const DefaultAnomalyK = 3.5

// mad returns the median absolute deviation of xs around med.
func mad(xs []float64, med float64) float64 {
	d := make([]float64, len(xs))
	for i, x := range xs {
		if x >= med {
			d[i] = x - med
		} else {
			d[i] = med - x
		}
	}
	return stats.Median(d)
}

// madOutliers flags indices whose value exceeds median + k·MAD. When the
// MAD is zero (at least half the fleet is identical) a device is only
// flagged if it exceeds twice the median — pure jitter around a uniform
// fleet must not page anyone.
func madOutliers(xs []float64, k float64) (cut float64, idx []int) {
	med := stats.Median(xs)
	m := mad(xs, med)
	if m > 0 {
		cut = med + k*m
	} else {
		if med <= 0 {
			return 0, nil
		}
		cut = 2 * med
	}
	for i, x := range xs {
		if x > cut {
			idx = append(idx, i)
		}
	}
	return cut, idx
}

// DetectAnomalies runs the outlier pass over a completed fleet report.
// k <= 0 uses DefaultAnomalyK. The result is ordered by (device, kind).
func DetectAnomalies(rep *Report, k float64) []Anomaly {
	if k <= 0 {
		k = DefaultAnomalyK
	}
	n := len(rep.Outcomes)
	if n == 0 {
		return nil
	}
	var out []Anomaly

	cycles := make([]float64, n)
	wall := make([]float64, n)
	for i := range rep.Outcomes {
		cycles[i] = float64(rep.Outcomes[i].Res.Cycles)
		wall[i] = rep.Outcomes[i].Res.WallMs()
	}
	cut, idx := madOutliers(cycles, k)
	for _, i := range idx {
		out = append(out, Anomaly{Dev: i, Kind: AnomalyStragglerCycles, Value: cycles[i], Threshold: cut,
			Detail: fmt.Sprintf("%.0f cycles vs fleet cut %.0f", cycles[i], cut)})
	}
	cut, idx = madOutliers(wall, k)
	for _, i := range idx {
		out = append(out, Anomaly{Dev: i, Kind: AnomalyStragglerWall, Value: wall[i], Threshold: cut,
			Detail: fmt.Sprintf("%.1f ms wall vs fleet cut %.1f", wall[i], cut)})
	}

	// Livelock: energy went in, nothing came out. A device that completed
	// made progress by definition; one that never reached a commit point
	// while burning cycles is stuck re-executing (Figure 9's collapse) —
	// its commit rate is exactly zero with spend > 0.
	for i := range rep.Outcomes {
		res := &rep.Outcomes[i].Res
		if res.Completed || res.Cycles == 0 {
			continue
		}
		if res.TotalCheckpoints == 0 && rep.Outcomes[i].Sends == 0 {
			out = append(out, Anomaly{Dev: i, Kind: AnomalyLivelock,
				Value: float64(res.Cycles), Threshold: 0,
				Detail: fmt.Sprintf("%d cycles, %d failures, 0 commits", res.Cycles, res.Failures)})
		}
	}

	// Freshness hotspots: expired ratio per device, outliers by the same
	// MAD rule. Only devices the gateway actually heard from participate.
	if rep.gw != nil && rep.Gateway.Expired > 0 {
		ratios := make([]float64, n)
		uniques := make([]float64, n)
		delivered, expired := rep.gw.deviceCounts(n)
		for i := 0; i < n; i++ {
			u := delivered[i] + expired[i]
			uniques[i] = float64(u)
			if u > 0 {
				ratios[i] = float64(expired[i]) / float64(u)
			}
		}
		cut, idx = madOutliers(ratios, k)
		for _, i := range idx {
			if uniques[i] == 0 {
				continue
			}
			out = append(out, Anomaly{Dev: i, Kind: AnomalyFreshness, Value: ratios[i], Threshold: cut,
				Detail: fmt.Sprintf("%.0f%% of %d unique packets expired vs fleet cut %.0f%%",
					100*ratios[i], int(uniques[i]), 100*cut)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Dev != out[j].Dev {
			return out[i].Dev < out[j].Dev
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// anomalyCounts tallies anomalies by kind (for the metrics rollup).
func anomalyCounts(as []Anomaly) map[string]int64 {
	m := map[string]int64{}
	for _, a := range as {
		m[a.Kind]++
	}
	return m
}
