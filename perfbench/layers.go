package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/cpsolve"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// The benchmark's calls into the program's layers. Each opens a span when
// the run is traced; untraced, each is the bare call.

// build constructs a DAG; family tags it for the scaling slopes.
func (r *runner) build(family string, mk func() *graph.DAG) *graph.DAG {
	id := r.tr.begin("graph.build")
	d := mk()
	r.tr.end(id)
	if s := r.tr.at(id); s != nil {
		s.Tag, s.Tasks = family, len(d.Tasks)
	}
	return d
}

// simulate runs one serial simulation. When traced, the scheduler runs
// behind the timing decorator and the run's heap allocations are counted.
func (r *runner) simulate(family string, d *graph.DAG, p *platform.Platform, s sched.Scheduler, opt simulator.Options) (*simulator.Result, error) {
	if r.tr == nil {
		return simulator.Run(d, p, s, opt)
	}
	s, ts := decorate(s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.tr.begin("simulator.run")
	res, err := simulator.Run(d, p, s, opt)
	r.tr.end(id)
	runtime.ReadMemStats(&after)
	sp := r.tr.at(id)
	sp.Tag, sp.Tasks, sp.Flag = family, len(d.Tasks), opt.Overhead
	sp.Calls = int64(after.Mallocs - before.Mallocs)
	sp.Val = float64(after.TotalAlloc - before.TotalAlloc)
	start := sp.Start
	r.tr.add(span{Name: "sched.init", Start: start, End: start + ts.initNs, Parent: id})
	r.tr.add(span{Name: "sched.assign", Start: start, End: start + ts.assignNs, Parent: id, Calls: ts.calls})
	return res, err
}

func (r *runner) validate(d *graph.DAG, p *platform.Platform, res *simulator.Result) error {
	id := r.tr.begin("simulator.validate")
	defer r.tr.end(id)
	return simulator.Validate(d, p, res)
}

// boundFuncs are the bound calls the benchmark makes, by span name.
var boundFuncs = map[string]func(*graph.DAG, *platform.Platform) (bounds.Result, error){
	"bounds.critical_path": bounds.CriticalPath,
	"bounds.area_int":      bounds.AreaInt,
	"bounds.mixed_int":     bounds.MixedInt,
	"probe.mixed_lp":       bounds.Mixed,
}

// bound computes one bound; the span is flagged when an integral solve fell
// back to its LP relaxation.
func (r *runner) bound(name, family string, d *graph.DAG, p *platform.Platform) (bounds.Result, error) {
	id := r.tr.begin(name)
	b, err := boundFuncs[name](d, p)
	r.tr.end(id)
	if s := r.tr.at(id); s != nil {
		s.Tag, s.Tasks, s.Flag = family, len(d.Tasks), strings.HasSuffix(b.Name, "(relaxed)")
	}
	return b, err
}

// boundJob runs one bound as a job of the list and returns its makespan.
// check, when non-nil, is an invariant the value must meet.
func (r *runner) boundJob(key, name, family string, d *graph.DAG, p *platform.Platform, check func(float64) error) float64 {
	var v float64
	r.job(key, func() (string, error) {
		b, err := r.bound(name, family, d, p)
		if err != nil {
			return "", err
		}
		if check != nil {
			if err := check(b.MakespanSec); err != nil {
				return "", err
			}
		}
		v = b.MakespanSec
		return b.Name + ":" + bits(b.MakespanSec), nil
	})
	return v
}

// simJob simulates d on p under the scheduler mk builds and checks that the
// schedule is legal and no shorter than the mixed bound lb.
func (r *runner) simJob(key, family string, d *graph.DAG, p *platform.Platform,
	mk func() (sched.Scheduler, error), opt simulator.Options, lb float64) {
	r.job(key, func() (string, error) {
		s, err := mk()
		if err != nil {
			return "", err
		}
		res, err := r.simulate(family, d, p, s, opt)
		if err != nil {
			return "", err
		}
		if err := r.validate(d, p, res); err != nil {
			return "", err
		}
		if !leq(lb, res.MakespanSec) {
			return "", fmt.Errorf("mixed bound %g exceeds makespan %g", lb, res.MakespanSec)
		}
		return simDigest(res), nil
	})
}

func named(name string) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) { return core.NewScheduler(name) }
}

// optimize runs the CP search; the span records the nodes expanded and the
// gap of the CP makespan to the mixed bound lb.
func (r *runner) optimize(d *graph.DAG, p *platform.Platform, budget, workers int, lb float64) (*cpsolve.Result, error) {
	id := r.tr.begin("cpsolve.solve")
	res, err := core.OptimizeDAG(context.Background(), d, p, budget, workers)
	r.tr.end(id)
	if s := r.tr.at(id); s != nil && err == nil {
		s.Tasks, s.Calls, s.Val = len(d.Tasks), int64(res.Nodes), res.Makespan/lb-1
	}
	return res, err
}

// experiment regenerates one paper artifact; seedTasks (the simulated task
// instances it runs: seeds × tasks × schedulers) is the base of
// experiments.batched_ns_per_seed_task.
func (r *runner) experiment(id string, cfg experiments.Config, seedTasks int64) (string, error) {
	sid := r.tr.begin("experiments.run")
	text, err := core.RunExperiment(context.Background(), id, cfg)
	r.tr.end(sid)
	if s := r.tr.at(sid); s != nil {
		s.Tag, s.Calls = id, seedTasks
	}
	return text, err
}

// unitSpan opens a span around a whole unit of the job list, tagged with
// the unit's family (the halves of paper-actual are told apart by it).
func (r *runner) unitSpan(tag string) func() {
	id := r.tr.begin("unit")
	if s := r.tr.at(id); s != nil {
		s.Tag = tag
	}
	return func() { r.tr.end(id) }
}

// probe times, on a traced run only and outside the pass's wall clock, the
// graph calls the job list makes implicitly (topological order, kind
// census) and, per platform, the LP relaxation of the mixed bound.
func (r *runner) probe(family string, d *graph.DAG, ps ...*platform.Platform) {
	if r.tr == nil {
		return
	}
	r.exclude(func() {
		id := r.tr.begin("probe.topo")
		_, err := d.TopoOrder()
		r.tr.end(id)
		if err != nil {
			r.fail("probe: %v", err)
		}
		s := r.tr.at(id)
		s.Tag, s.Tasks = family, len(d.Tasks)

		id = r.tr.begin("probe.census")
		_, _, _ = d.Kinds(), d.NBs(), d.CountByKind()
		r.tr.end(id)
		s = r.tr.at(id)
		s.Tag, s.Tasks = family, len(d.Tasks)

		for _, p := range ps {
			if _, err := r.bound("probe.mixed_lp", family, d, p); err != nil {
				r.fail("probe: %v", err)
			}
		}
	})
}

// warmQuery repeats, on a traced run only and outside the pass's wall
// clock, the integral LP pair of d's first (cold) query, now on a warm
// census: bounds.cold_ms against bounds.warm_ms.
func (r *runner) warmQuery(family string, d *graph.DAG, p *platform.Platform) {
	if r.tr == nil {
		return
	}
	r.exclude(func() {
		id := r.tr.begin("probe.query_warm")
		_, err1 := bounds.AreaInt(d, p)
		_, err2 := bounds.MixedInt(d, p)
		r.tr.end(id)
		if err := errors.Join(err1, err2); err != nil {
			r.fail("probe: %v", err)
		}
	})
}

// platforms builds the named platforms through the registry.
func platforms(names ...string) (map[string]*platform.Platform, error) {
	out := make(map[string]*platform.Platform, len(names))
	for _, n := range names {
		p, err := core.NewPlatform(n)
		if err != nil {
			return nil, err
		}
		out[n] = p
	}
	return out, nil
}
