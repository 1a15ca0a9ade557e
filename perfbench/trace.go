package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls. Parent indexes the enclosing span (-1 for a pass root).
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"`
	Tag    string  `json:"tag,omitempty"`   // DAG family, endpoint, bound name, ...
	Tasks  int     `json:"tasks,omitempty"` // size of the DAG the call worked on
	Calls  int64   `json:"calls,omitempty"` // operations aggregated into the span
	Val    float64 `json:"val,omitempty"`   // a measured quantity (see the span's producer)
	Flag   bool    `json:"flag,omitempty"`  // jittered run, cache hit, relaxed bound, cold census
}

func (s *span) ns() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch    time.Time
	spans    []span
	stack    []int
	counters map[string]float64 // values scraped from the program, summed over passes
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// at returns span id for setting its attributes (nil when untraced). The
// pointer is valid until the next begin or add.
func (t *tracer) at(id int) *span {
	if t == nil {
		return nil
	}
	return &t.spans[id]
}

// add records a finished span under parent: an aggregate of many short
// calls (Start is then the parent's start and the length their sum) or a
// call timed on another goroutine.
func (t *tracer) add(s span) {
	t.spans = append(t.spans, s)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNs returns each span's duration minus its children's. The benchmark's
// traced calls run one at a time, so children never overlap.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].ns()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].ns()
		}
	}
	return self
}

// ---------------------------------------------------------------------------
// Scheduler timing decorator

// timedSched times a scheduler's Init and Assign calls on serial runs. It
// keeps its figures in fields, not spans, so it allocates nothing while the
// simulator runs; the caller turns them into spans afterwards.
type timedSched struct {
	sched.Scheduler
	initNs   int64
	assignNs int64
	calls    int64
}

func (s *timedSched) Init(d *graph.DAG, p *platform.Platform, seed int64) {
	t0 := time.Now()
	s.Scheduler.Init(d, p, seed)
	s.initNs += int64(time.Since(t0))
}

func (s *timedSched) Assign(v sched.View, t *graph.Task) int {
	t0 := time.Now()
	w := s.Scheduler.Assign(v, t)
	s.assignNs += int64(time.Since(t0))
	s.calls++
	return w
}

// decorate wraps s in a timedSched that also implements exactly the optional
// extensions s implements (Gater, ClassRestricter, CostModel), so the
// simulator sees the same policy either way.
func decorate(s sched.Scheduler) (sched.Scheduler, *timedSched) {
	t := &timedSched{Scheduler: s}
	g, isG := s.(sched.Gater)
	r, isR := s.(sched.ClassRestricter)
	c, isC := s.(sched.CostModel)
	type (
		G = sched.Gater
		R = sched.ClassRestricter
		C = sched.CostModel
	)
	switch {
	case isG && isR && isC:
		return struct {
			*timedSched
			G
			R
			C
		}{t, g, r, c}, t
	case isG && isR:
		return struct {
			*timedSched
			G
			R
		}{t, g, r}, t
	case isG && isC:
		return struct {
			*timedSched
			G
			C
		}{t, g, c}, t
	case isR && isC:
		return struct {
			*timedSched
			R
			C
		}{t, r, c}, t
	case isG:
		return struct {
			*timedSched
			G
		}{t, g}, t
	case isR:
		return struct {
			*timedSched
			R
		}{t, r}, t
	case isC:
		return struct {
			*timedSched
			C
		}{t, c}, t
	}
	return t, t
}

// ---------------------------------------------------------------------------
// Per-layer metrics

// perLayerMetrics names every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. Metrics of a layer a workload does not call
// read 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"graph.build_ms", "ms"},
	{"graph.topo_ms", "ms"},
	{"graph.topo_slope", "ratio"},
	{"graph.census_ms", "ms"},
	{"sched.init_ms", "ms"},
	{"sched.assign_ns", "ns"},
	{"sched.assign_calls", "count"},
	{"sched.share", "ratio"},
	{"simulator.runs", "count"},
	{"simulator.run_ms", "ms"},
	{"simulator.ns_per_task.n16", "ns"},
	{"simulator.ns_per_task.n32", "ns"},
	{"simulator.ns_per_task.n64", "ns"},
	{"simulator.scaling_slope", "ratio"},
	{"simulator.validate_ms", "ms"},
	{"simulator.jitter_ns_per_task", "ns"},
	{"simulator.jitter_share", "ratio"},
	{"simulator.allocs_per_run", "count"},
	{"simulator.bytes_per_run", "B"},
	{"experiments.calls", "count"},
	{"experiments.batched_ms", "ms"},
	{"experiments.batched_ns_per_seed_task", "ns"},
	{"experiments.batched_share", "ratio"},
	{"bounds.critical_path_ms", "ms"},
	{"bounds.area_int_ms", "ms"},
	{"bounds.mixed_int_ms", "ms"},
	{"bounds.mixed_lp_ms", "ms"},
	{"bounds.cold_ms", "ms"},
	{"bounds.warm_ms", "ms"},
	{"bounds.relaxed_ratio", "ratio"},
	{"bounds.ms_slope", "ratio"},
	{"cpsolve.solve_ms", "ms"},
	{"cpsolve.nodes_per_s", "1/s"},
	{"cpsolve.gap_to_mixed", "ratio"},
	{"service.simulate_p50_ms", "ms"},
	{"service.bounds_p50_ms", "ms"},
	{"service.sweep_p50_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.phase_s.prep", "s"},
	{"service.phase_s.simulate", "s"},
	{"service.phase_s.bounds", "s"},
	{"service.phase_s.sweep", "s"},
	{"service.overhead_s", "s"},
	{"service.shed_ratio", "ratio"},
	{"trace.overhead", "ratio"},
}

// sameOutputs counts, as failures of the traced passes, every job whose
// traced output differs from its untraced one.
func sameOutputs(plain, traced []passStat) {
	for i := range traced {
		p := &traced[i]
		for k, v := range p.got {
			if w, ok := plain[0].got[k]; ok && w != v {
				p.failed++
				p.notes = append(p.notes, fmt.Sprintf("%s: traced output %s, untraced %s", k, v, w))
			}
		}
	}
}

// perLayer derives the per-layer metrics from a traced run's spans. plain
// and traced are the untraced and traced passes over the same job list.
func perLayer(t *tracer, plain, traced []passStat) *result {
	res := &result{Metrics: map[string]metric{}}
	var plainWalls, tracedWalls []float64
	var wallNs float64
	for _, p := range plain {
		res.Attempted += p.attempted
		res.Failed += p.failed
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		res.Attempted += p.attempted
		res.Failed += p.failed
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		wallNs += float64(p.wall)
	}
	res.Correct = res.Failed == 0

	passes := float64(len(traced))
	self := t.selfNs()
	sum := map[string]float64{}   // Σ duration by span name, ns
	count := map[string]float64{} // spans by name
	calls := map[string]float64{} // Σ Calls by span name
	for i := range t.spans {
		s := &t.spans[i]
		sum[s.Name] += float64(s.ns())
		count[s.Name]++
		calls[s.Name] += float64(s.Calls)
	}
	perPassMs := func(name string) float64 { return sum[name] / 1e6 / passes }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{}
	m["graph.build_ms"] = perPassMs("graph.build")
	m["graph.topo_ms"] = perPassMs("probe.topo")
	m["graph.topo_slope"] = t.slope(func(s *span) bool { return s.Name == "probe.topo" && s.Tag == "cholesky" })
	m["graph.census_ms"] = perPassMs("probe.census")

	m["sched.init_ms"] = perPassMs("sched.init")
	m["sched.assign_ns"] = ratio(sum["sched.assign"], calls["sched.assign"])
	m["sched.assign_calls"] = calls["sched.assign"] / passes
	m["sched.share"] = ratio(sum["sched.init"]+sum["sched.assign"], sum["simulator.run"])

	var runSelf, jitNs, jitTasks, allocs, bytes, runs float64
	perTask := map[int][2]float64{} // tiles → {ns, tasks} over unjittered runs
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "simulator.run" {
			continue
		}
		runs++
		runSelf += float64(self[i])
		allocs += float64(s.Calls)
		bytes += s.Val
		if s.Flag {
			jitNs += float64(s.ns())
			jitTasks += float64(s.Tasks)
		} else if n := choleskyTiles(s.Tasks); s.Tag == "cholesky" && n > 0 {
			v := perTask[n]
			perTask[n] = [2]float64{v[0] + float64(s.ns()), v[1] + float64(s.Tasks)}
		}
	}
	m["simulator.runs"] = runs / passes
	m["simulator.run_ms"] = runSelf / 1e6 / passes
	var xs, ys []float64
	for _, n := range []int{16, 32, 64} {
		v := perTask[n]
		m[fmt.Sprintf("simulator.ns_per_task.n%d", n)] = ratio(v[0], v[1])
		if v[1] > 0 {
			xs = append(xs, float64(graphTasks(n)))
			ys = append(ys, v[0]/v[1]*float64(graphTasks(n)))
		}
	}
	m["simulator.scaling_slope"] = logSlope(xs, ys)
	m["simulator.validate_ms"] = perPassMs("simulator.validate")
	m["simulator.jitter_ns_per_task"] = ratio(jitNs, jitTasks)
	m["simulator.jitter_share"] = ratio(t.tagged("unit", "fig11"), wallNs)
	m["simulator.allocs_per_run"] = ratio(allocs, runs)
	m["simulator.bytes_per_run"] = ratio(bytes, runs)

	m["experiments.calls"] = count["experiments.run"] / passes
	m["experiments.batched_ms"] = perPassMs("experiments.run")
	m["experiments.batched_ns_per_seed_task"] = ratio(sum["experiments.run"], calls["experiments.run"])
	m["experiments.batched_share"] = ratio(t.tagged("unit", "fig6"), wallNs)

	m["bounds.critical_path_ms"] = perPassMs("bounds.critical_path")
	m["bounds.area_int_ms"] = perPassMs("bounds.area_int")
	m["bounds.mixed_int_ms"] = perPassMs("bounds.mixed_int")
	m["bounds.mixed_lp_ms"] = perPassMs("probe.mixed_lp")
	var coldNs, coldN, warmNs, warmN, relaxed, integral float64
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "bounds.query":
			if s.Flag {
				coldNs, coldN = coldNs+float64(s.ns()), coldN+1
			}
		case "probe.query_warm":
			warmNs, warmN = warmNs+float64(s.ns()), warmN+1
		case "bounds.area_int", "bounds.mixed_int":
			integral++
			if s.Flag {
				relaxed++
			}
		}
	}
	m["bounds.cold_ms"] = ratio(coldNs, coldN) / 1e6
	m["bounds.warm_ms"] = ratio(warmNs, warmN) / 1e6
	m["bounds.relaxed_ratio"] = ratio(relaxed, integral)
	m["bounds.ms_slope"] = t.slope(func(s *span) bool {
		return s.Tag == "cholesky" && (s.Name == "bounds.critical_path" || s.Name == "bounds.area_int" || s.Name == "bounds.mixed_int")
	})

	var gap float64
	for i := range t.spans {
		if t.spans[i].Name == "cpsolve.solve" {
			gap += t.spans[i].Val
		}
	}
	m["cpsolve.solve_ms"] = perPassMs("cpsolve.solve")
	m["cpsolve.nodes_per_s"] = ratio(calls["cpsolve.solve"], sum["cpsolve.solve"]/1e9)
	m["cpsolve.gap_to_mixed"] = ratio(gap, count["cpsolve.solve"])

	serviceMetrics(t, m, passes)

	m["trace.overhead"] = ratio(median(tracedWalls), median(plainWalls))

	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
	}
	return res
}

// tagged sums the durations of spans called name with tag.
func (t *tracer) tagged(name, tag string) float64 {
	var ns float64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].Tag == tag {
			ns += float64(t.spans[i].ns())
		}
	}
	return ns
}

// slope is the log-log slope of the mean duration of the spans keep
// selects against their DAG's task count: the exponent by which the calls'
// cost grows with the DAG.
func (t *tracer) slope(keep func(*span) bool) float64 {
	agg := map[int][2]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if keep(s) && s.Tasks > 0 {
			v := agg[s.Tasks]
			agg[s.Tasks] = [2]float64{v[0] + float64(s.ns()), v[1] + 1}
		}
	}
	var xs, ys []float64
	for n, v := range agg {
		xs = append(xs, float64(n))
		ys = append(ys, v[0]/v[1])
	}
	return logSlope(xs, ys)
}

// logSlope fits log y = a + b log x by least squares and returns b (0 when
// fewer than two points).
func logSlope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		x, y := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// graphTasks is the task count of the n-tile Cholesky DAG.
func graphTasks(n int) int { return n * (n + 1) * (n + 2) / 6 }

// choleskyTiles inverts graphTasks (0 when tasks is no such count).
func choleskyTiles(tasks int) int {
	for n := 1; graphTasks(n) <= tasks; n++ {
		if graphTasks(n) == tasks {
			return n
		}
	}
	return 0
}
