package main

import (
	"fmt"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/replay"
)

// sweepSpec is one mc.Sweep of an mc-sweep iteration. An uncapped depth-2
// sweep of a large program runs millions of schedules, so depth 2 is
// always capped (max = schedules per depth level, a stride sample of
// them); the full profile caps depth 1 too, to keep sweeps short.
type sweepSpec struct {
	app        string
	depth, max int
}

func (s sweepSpec) name() string { return fmt.Sprintf("%s-d%d", s.app, s.depth) }

func sweepConfig(s sweepSpec, seed uint64) mc.Config {
	return mc.Config{
		Spec: replay.Spec{App: s.app, Runtime: "tics", Power: "continuous", Clock: "perfect",
			Seed: seed, TimerMs: 2, WallMs: 200},
		Depth: s.depth, OffMs: 20, Workers: workers, MaxSchedules: s.max,
	}
}

// sweepWitness is what a sweep must repeat exactly on every iteration.
type sweepWitness struct {
	schedules, dropped int
	cycles             int64
	findings           int
}

// runMC runs iterations of the profile's sweeps: one warm-up iteration,
// then measured ones. Set-up builds each program and runs its oracle.
func runMC(r *run) error {
	err := r.setup(func() error {
		for _, s := range r.prof.sweeps {
			cfg := sweepConfig(s, r.opts.seed)
			cfg.Depth, cfg.MaxSchedules = 1, 1
			start := time.Now()
			if _, err := mc.Sweep(cfg); err != nil {
				return fmt.Errorf("%s: %w", s.name(), err)
			}
			r.layer.add("mc.oracle_build_ms", ms(time.Since(start)))
		}
		return nil
	})
	if err != nil {
		return err
	}

	first := map[string]sweepWitness{}
	var schedules int // per iteration; every iteration repeats the warm-up's, or fails
	// sweepMs[i] holds the times of sweep i in the measured iterations.
	sweepMs := make([][]float64, len(r.prof.sweeps))
	iter := 0
	iteration := func(warm bool) error {
		trace := fmt.Sprintf("%s/%d", r.opts.workload, iter)
		iter++
		id := r.tr.begin("iteration", trace, 0)
		defer r.tr.end(id)
		var wall time.Duration
		var total sweepWitness
		for i, s := range r.prof.sweeps {
			start := time.Now()
			rep, err := mc.Sweep(sweepConfig(s, r.opts.seed))
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name(), err)
			}
			r.tr.add("mc.Sweep."+s.name(), trace, id, start, start.Add(d))
			wall += d
			r.attempted++
			w := sweepWitness{rep.Schedules, rep.Dropped, rep.CyclesExplored, len(rep.Findings) + len(rep.OracleFindings)}
			if w.findings > 0 {
				r.fail(1, "%s: %d findings, first %s", s.name(), w.findings, rep.Counterexample())
			}
			total.schedules += w.schedules
			total.dropped += w.dropped
			total.cycles += w.cycles
			total.findings += w.findings
			if warm {
				first[s.name()] = w
				r.witness[s.name()+".schedules"] = fmt.Sprint(w.schedules)
				r.witness[s.name()+".cycles_explored"] = fmt.Sprint(w.cycles)
				r.witness[s.name()+".findings"] = fmt.Sprint(w.findings)
				continue
			}
			if w != first[s.name()] {
				r.fail(1, "%s: sweep differs from the warm-up sweep: %+v, want %+v", s.name(), w, first[s.name()])
			}
			sweepMs[i] = append(sweepMs[i], ms(d))
			r.layer.add("mc.us_per_schedule."+s.name(), ratio(us(d), float64(w.schedules)))
		}
		if warm {
			schedules = total.schedules
			return nil
		}
		r.layer.add("mc.host_ns_per_kcycle", ratio(float64(wall.Nanoseconds()), float64(total.cycles)/1e3))
		r.layer.add("mc.schedules", float64(total.schedules))
		r.layer.add("mc.dropped", float64(total.dropped))
		r.layer.add("mc.cycles_explored", float64(total.cycles))
		r.layer.add("mc.findings", float64(total.findings))
		return nil
	}

	if err := iteration(true); err != nil {
		return err
	}
	if err := r.measure(func() error { return iteration(false) }); err != nil {
		return err
	}
	best := fastest(sweepMs...)
	r.e2e.add("work_per_s", float64(schedules)/best*1e3)
	r.e2e.add("op_ms", best)
	r.e2e.add("peak_rss_mb", float64(obs.SampleResources().PeakRSSBytes)/1e6)
	return nil
}
