package main

import (
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// paper-sim: the paper's simulated figures (Figures 4, 5, 7 and 10) with no
// jitter and one seed per job, on one goroutine. Every (size, platform)
// gets a mixed bound and one run per scheduler; mirage-nocomm also runs the
// Figure 10 triangle hints; small sizes get a CP search whose schedule is
// injected and simulated.

var (
	simPlatforms  = []string{"homogeneous:9", "related:20", "mirage-nocomm", "mirage"}
	simSchedulers = []string{"random", "dmda", "dmdas"}
)

const (
	hintPlatform = "mirage-nocomm"
	hintMaxTiles = 32
	cpPlatform   = "mirage-nocomm"
	cpBudget     = 4000
	cpWorkers    = 2
	simSeed      = 1 // the one seed of every paper-sim job
)

func paperSimUnits(rng *rand.Rand, tiny bool) ([]unit, func() error, error) {
	sizes := []int{4, 8, 12, 16, 20, 24, 28, 32, 48, 64}
	cpSizes := []int{4, 6, 8}
	if tiny {
		sizes, cpSizes = []int{4, 8}, []int{4}
	}
	pfs, err := platforms(simPlatforms...)
	if err != nil {
		return nil, nil, err
	}
	var units []unit
	for _, n := range sizes {
		for _, pn := range simPlatforms {
			units = append(units, simUnit(rng, n, pn, pfs[pn]))
		}
	}
	for _, n := range cpSizes {
		units = append(units, cpUnit(n, pfs[cpPlatform]))
	}
	warm := func() error {
		r := newRunner(nil, nil)
		for _, pn := range simPlatforms {
			simUnit(rng, 10, pn, pfs[pn]).run(r)
		}
		cpUnit(3, pfs[cpPlatform]).run(r)
		return warmErr(r)
	}
	return shuffled(rng, units), warm, nil
}

func simUnit(rng *rand.Rand, n int, pn string, p *platform.Platform) unit {
	scheds := simSchedulers
	if pn == hintPlatform && n <= hintMaxTiles {
		scheds = append(scheds[:len(scheds):len(scheds)], triangleSchedulers(n)...)
	}
	scheds = shuffled(rng, scheds)
	prefix := fmt.Sprintf("sim/n=%d/%s/", n, pn)
	jobs := []string{prefix + "mixed-int"}
	for _, s := range scheds {
		jobs = append(jobs, prefix+s)
	}
	return unit{jobs: jobs, run: func(r *runner) {
		end := r.unitSpan("sim")
		d := r.build("cholesky", func() *graph.DAG { return graph.Cholesky(n) })
		lb := r.boundJob(jobs[0], "bounds.mixed_int", "cholesky", d, p, nil)
		for i, s := range scheds {
			r.simJob(jobs[i+1], "cholesky", d, p, named(s), simulator.Options{Seed: simSeed}, lb)
		}
		end()
		r.probe("cholesky", d)
	}}
}

// cpUnit searches a static schedule with the CP solver, then injects it into
// the simulator; both must respect the mixed bound.
func cpUnit(n int, p *platform.Platform) unit {
	prefix := fmt.Sprintf("cp/n=%d/", n)
	jobs := []string{prefix + "mixed-int", prefix + "solve", prefix + "inject"}
	return unit{jobs: jobs, run: func(r *runner) {
		end := r.unitSpan("cp")
		d := r.build("cholesky-cp", func() *graph.DAG { return graph.Cholesky(n) })
		lb := r.boundJob(jobs[0], "bounds.mixed_int", "cholesky-cp", d, p, nil)
		var plan *sched.StaticSchedule
		r.job(jobs[1], func() (string, error) {
			res, err := r.optimize(d, p, cpBudget, cpWorkers, lb)
			if err != nil {
				return "", err
			}
			if !leq(lb, res.Makespan) {
				return "", fmt.Errorf("mixed bound %g exceeds CP makespan %g", lb, res.Makespan)
			}
			plan = res.Schedule
			return fmt.Sprintf("%s nodes=%d exhausted=%v",
				scheduleDigest(plan.Worker, plan.Start, res.Makespan), res.Nodes, res.Exhausted), nil
		})
		if plan != nil {
			inject := func() (sched.Scheduler, error) { return plan.Scheduler("cp-inject"), nil }
			r.simJob(jobs[2], "cholesky-cp", d, p, inject, simulator.Options{}, lb)
		}
		end()
		r.probe("cholesky-cp", d)
	}}
}

// paper-actual: the jittered "actual-execution" figures in two halves. The
// batched half regenerates Figure 6 through the experiments layer (the lane
// engine: one event loop per seed batch); the serial half is Figure 11's
// triangle-k sweep, one jittered simulator.Run per seed.

const (
	fig6Runs   = 160 // seeds per Figure 6 point
	fig11Seeds = 10  // seeds per Figure 11 (scheduler, size)
)

func paperActualUnits(rng *rand.Rand, tiny bool) ([]unit, func() error, error) {
	fig6Sizes := []int{8, 12, 16, 20}
	fig11Sizes := []int{8, 12, 16}
	seeds := fig11Seeds
	if tiny {
		fig6Sizes, fig11Sizes, seeds = []int{8}, []int{8}, 2
	}
	pfs, err := platforms("mirage")
	if err != nil {
		return nil, nil, err
	}
	var units []unit
	for _, n := range fig6Sizes {
		units = append(units, fig6Unit(n, fig6Runs))
	}
	for _, n := range fig11Sizes {
		units = append(units, fig11Unit(rng, n, seeds, pfs["mirage"]))
	}
	warm := func() error {
		r := newRunner(nil, nil)
		fig6Unit(6, 16).run(r)
		fig11Unit(rng, 6, 2, pfs["mirage"]).run(r)
		return warmErr(r)
	}
	return shuffled(rng, units), warm, nil
}

func fig6Unit(n, runs int) unit {
	key := fmt.Sprintf("fig6/n=%d/runs=%d", n, runs)
	return unit{jobs: []string{key}, run: func(r *runner) {
		end := r.unitSpan("fig6")
		defer end()
		cfg := experiments.Default()
		cfg.Sizes, cfg.Runs, cfg.Batch = []int{n}, runs, true
		seedTasks := int64(runs) * int64(graphTasks(n)) * int64(len(simSchedulers))
		r.job(key, func() (string, error) {
			text, err := r.experiment("fig6", cfg, seedTasks)
			if err != nil {
				return "", err
			}
			return textDigest(text), nil
		})
	}}
}

func fig11Unit(rng *rand.Rand, n, seeds int, p *platform.Platform) unit {
	type run struct {
		sched string
		seed  int64
	}
	var runs []run
	for _, s := range append([]string{"dmdas"}, triangleSchedulers(n)...) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			runs = append(runs, run{s, seed})
		}
	}
	runs = shuffled(rng, runs)
	prefix := fmt.Sprintf("fig11/n=%d/", n)
	jobs := []string{prefix + "mixed-int"}
	for _, x := range runs {
		jobs = append(jobs, fmt.Sprintf("%s%s/seed=%d", prefix, x.sched, x.seed))
	}
	return unit{jobs: jobs, run: func(r *runner) {
		end := r.unitSpan("fig11")
		d := r.build("cholesky", func() *graph.DAG { return graph.Cholesky(n) })
		lb := r.boundJob(jobs[0], "bounds.mixed_int", "cholesky", d, p, nil)
		for i, x := range runs {
			r.simJob(jobs[i+1], "cholesky", d, p, named(x.sched),
				simulator.Options{Seed: x.seed, Overhead: true}, lb)
		}
		end()
		r.probe("cholesky", d)
	}}
}

// triangleSchedulers are the triangle hints run at n tiles, with the TRSM
// threshold a quarter, half and three quarters of the way down the matrix.
func triangleSchedulers(n int) []string {
	var out []string
	prev := 0
	for _, k := range []int{n / 4, n / 2, 3 * n / 4} {
		if k >= 1 && k != prev {
			out = append(out, fmt.Sprintf("trsm-cpu:%d", k))
			prev = k
		}
	}
	return out
}

// warmErr reports the first failure of a warm-up run.
func warmErr(r *runner) error {
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %s", r.notes[0])
	}
	return nil
}
