package main

import "fmt"

// selfTest checks the benchmark against a slowdown of known size and
// place: a delay injected before every tile solve, sized to add about a
// fifth to a routed_cold rep. -compare must flag wall_s on routed_cold
// as worse, the ledger must put the increase in core.correct_s with the
// model iterations unchanged, and patlib_fill_warm, whose warm reruns
// solve no tile, must not be flagged.
func selfTest(e env, seconds float64, benchPath string) error {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	routed, _ := findWorkload("routed_cold")
	warm, _ := findWorkload("patlib_fill_warm")
	set := func(e env) ([]runRecord, error) {
		var recs []runRecord
		for _, c := range []struct {
			wl     workload
			traced bool
		}{{routed, false}, {routed, true}, {warm, false}} {
			rec, _, err := runWorkload(c.wl, e, seconds, c.traced)
			if err != nil {
				return nil, err
			}
			if rec.Result.Failed > 0 {
				return nil, fmt.Errorf("%s: %d operations failed: %v", c.wl.name, rec.Result.Failed, rec.Errors)
			}
			recs = append(recs, rec)
		}
		return recs, nil
	}
	metric := func(recs []runRecord, workload string, trace int, name string) float64 {
		return median(values(recs, workload, trace, name))
	}

	fmt.Println("# selftest: baseline")
	base, err := set(e)
	if err != nil {
		return err
	}
	wall := metric(base, routed.name, 0, "wall_s")
	solves := metric(base, routed.name, 1, "core.tile_solves")
	// P workers sleep at once, so a rep grows by at most solves*delay/P.
	// It grows by about 0.7 of that: the FFTs of the worker still solving
	// spread over the processor the sleeper leaves idle. Sized for a
	// nominal 30 %, the delay adds the 20 % the test is about.
	delayUS := int(0.3 * wall * float64(e.procs) / solves * 1e6)
	slowEnv := e
	slowEnv.inject = fmt.Sprintf("tile:delay:d=%dus", delayUS)
	fmt.Printf("# selftest: with %s (rep %.3f s, %g tile solves, P=%d)\n", slowEnv.inject, wall, solves, e.procs)
	slow, err := set(slowEnv)
	if err != nil {
		return err
	}

	rows, _, _ := compareSets(base, slow, bench)
	verdict := map[string]string{}
	for _, r := range rows {
		if r.metric == "wall_s" {
			verdict[r.workload] = r.verdict
			fmt.Printf("# %s wall_s: %.4f -> %.4f s (%+.1f%%, bound %.0f%%): %s\n",
				r.workload, r.a, r.b, 100*r.delta, 100*r.bound, r.verdict)
		}
	}
	dWall := metric(slow, routed.name, 0, "wall_s") - wall
	dCorrect := metric(slow, routed.name, 1, "core.correct_s") - metric(base, routed.name, 1, "core.correct_s")
	it0, it1 := metric(base, routed.name, 1, "model.iterations"), metric(slow, routed.name, 1, "model.iterations")
	fmt.Printf("# routed_cold: wall_s +%.4f s, core.correct_s +%.4f s, model.iterations %g -> %g\n", dWall, dCorrect, it0, it1)

	var problems []string
	if verdict[routed.name] != worse {
		problems = append(problems, "wall_s on routed_cold was not flagged worse")
	}
	if verdict[warm.name] == worse {
		problems = append(problems, "wall_s on patlib_fill_warm was flagged worse")
	}
	if dCorrect < 0.75*dWall {
		problems = append(problems, "the ledger does not put the increase in core.correct_s")
	}
	if it0 != it1 {
		problems = append(problems, "model.iterations changed")
	}
	if len(problems) > 0 {
		return fmt.Errorf("selftest failed: %v", problems)
	}
	fmt.Println("# selftest passed")
	return nil
}
