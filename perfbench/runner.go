package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simulator"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"paper-sim", "paper-actual", "bounds-ladder", "serve-mix"}

// A workload is a job list generated from a seed, run once per pass.
type workload interface {
	// setup generates the job list from seed and warms the program up:
	// everything before the first timed job.
	setup(seed int64) error
	// keys returns the golden keys of the job list, in run order.
	keys() []string
	// pass runs the whole job list once.
	pass(r *runner)
}

func newWorkload(name string, tiny bool) (workload, error) {
	switch name {
	case "paper-sim":
		return newBatch(paperSimUnits, tiny), nil
	case "paper-actual":
		return newBatch(paperActualUnits, tiny), nil
	case "bounds-ladder":
		return newBatch(ladderUnits, tiny), nil
	case "serve-mix":
		return &serveMix{tiny: tiny}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// A unit is one step of a batch workload's job list: typically one DAG
// build followed by the jobs that use it. jobs names the unit's golden keys
// in the order run executes them.
type unit struct {
	jobs []string
	run  func(r *runner)
}

// genFunc builds a batch workload's units in an order drawn from rng, and a
// warm-up that exercises the same code paths on inputs outside the job
// list. The tiny list is a subset of the full one, so the same goldens
// cover both.
type genFunc func(rng *rand.Rand, tiny bool) (units []unit, warm func() error, err error)

// passRNG draws the job order of pass k of a run with the given seed. Each
// pass runs the same jobs in its own order, so a run's figures average over
// orders rather than depend on one.
func passRNG(seed, k int64) *rand.Rand { return rand.New(rand.NewSource(seed<<20 + k)) }

// batch runs its units one after another on the calling goroutine.
type batch struct {
	gen    genFunc
	tiny   bool
	seed   int64
	passes int64 // passes run so far
	units  []unit
}

func newBatch(gen genFunc, tiny bool) *batch { return &batch{gen: gen, tiny: tiny} }

func (b *batch) setup(seed int64) error {
	units, warm, err := b.gen(passRNG(seed, 0), b.tiny)
	if err != nil {
		return err
	}
	b.seed, b.units = seed, units
	return warm()
}

func (b *batch) keys() []string {
	var ks []string
	for _, u := range b.units {
		ks = append(ks, u.jobs...)
	}
	return ks
}

func (b *batch) pass(r *runner) {
	if b.passes > 0 {
		var err error
		r.exclude(func() { b.units, _, err = b.gen(passRNG(b.seed, b.passes), b.tiny) })
		if err != nil {
			r.fail("job list: %v", err)
			return
		}
	}
	b.passes++
	for _, u := range b.units {
		u.run(r)
	}
}

// shuffled returns a copy of xs in an order drawn from rng.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runner carries one pass: it times each job, checks its output against
// the goldens, and counts what failed.
type runner struct {
	tr        *tracer // nil when tracing is off
	golden    map[string]string
	got       map[string]string
	latMs     []float64 // per-job latency
	attempted int
	failed    int
	notes     []string
	excluded  time.Duration // time inside the pass that is not the workload's
}

func newRunner(golden map[string]string, tr *tracer) *runner {
	return &runner{tr: tr, golden: golden, got: map[string]string{}}
}

// job runs one operation of the job list and records its outcome under key.
// f returns the output the goldens hold for key; an error from f (a failed
// call or a broken invariant) counts as a failure.
func (r *runner) job(key string, f func() (string, error)) {
	t0 := time.Now()
	out, err := f()
	r.record(key, time.Since(t0), out, err)
}

// record counts one finished operation.
func (r *runner) record(key string, lat time.Duration, out string, err error) {
	r.attempted++
	r.latMs = append(r.latMs, float64(lat.Nanoseconds())/1e6)
	if err != nil {
		r.fail("%s: %v", key, err)
		return
	}
	if prev, dup := r.got[key]; dup && prev != out {
		r.fail("%s: output differs between two runs of the same job in one pass", key)
	}
	r.got[key] = out
	if r.golden == nil {
		return // recording
	}
	if want, ok := r.golden[key]; !ok {
		r.fail("%s: no golden output", key)
	} else if want != out {
		r.fail("%s: output %s, golden %s", key, out, want)
	}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// exclude runs f inside the pass without counting its time in the pass's
// wall clock: traced probes, and the per-pass server start and stop.
func (r *runner) exclude(f func()) {
	t0 := time.Now()
	f()
	r.excluded += time.Since(t0)
}

// passStat is what one pass measured.
type passStat struct {
	wall      time.Duration
	peakHeap  uint64
	latMs     []float64
	attempted int
	failed    int
	notes     []string
	got       map[string]string
}

// runPasses repeats whole passes over the job list until dur has elapsed
// and at least minReqs jobs have run. tr, when non-nil, traces every pass.
func runPasses(w workload, golden map[string]string, dur time.Duration, minReqs int, tr *tracer) []passStat {
	hs := startHeapSampler()
	defer hs.stop()
	var ps []passStat
	reqs := 0
	start := time.Now()
	for len(ps) == 0 || time.Since(start) < dur || reqs < minReqs {
		runtime.GC() // every pass starts from the same heap
		r := newRunner(golden, tr)
		hs.reset()
		root := tr.begin("pass")
		t0 := time.Now()
		w.pass(r)
		wall := time.Since(t0) - r.excluded
		tr.end(root)
		ps = append(ps, passStat{wall: wall, peakHeap: hs.peak(), latMs: r.latMs,
			attempted: r.attempted, failed: r.failed, notes: r.notes, got: r.got})
		reqs += r.attempted
	}
	return ps
}

// heapSampler tracks the peak of the live heap (the bytes the latest GC
// marked) between resets, sampling every millisecond. Live bytes, unlike
// live plus not yet collected garbage, do not depend on when the collector
// happens to run. Each goroutine reads through its own sample buffer, so
// sampling allocates nothing.
type heapSampler struct {
	max  atomic.Uint64
	buf  []metrics.Sample // the calling goroutine's
	done chan struct{}
	wg   sync.WaitGroup
}

func liveHeap() []metrics.Sample { return []metrics.Sample{{Name: "/gc/heap/live:bytes"}} }

func read(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	return buf[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{buf: liveHeap(), done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		buf := liveHeap()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.observe(read(buf))
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.max.Store(read(h.buf)) }

func (h *heapSampler) peak() uint64 {
	h.observe(read(h.buf))
	return h.max.Load()
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// endToEnd derives the end-to-end metrics of an untraced run. Times and
// the peak heap are medians over passes; the latency percentiles pool the
// jobs of every pass.
func endToEnd(ps []passStat, setups []float64) *result {
	res := &result{Metrics: map[string]metric{}}
	var walls, heaps, rates, lat []float64
	for _, p := range ps {
		res.Attempted += p.attempted
		res.Failed += p.failed
		walls = append(walls, p.wall.Seconds())
		heaps = append(heaps, float64(p.peakHeap)/1e6)
		rates = append(rates, float64(p.attempted)/p.wall.Seconds())
		lat = append(lat, p.latMs...)
	}
	res.Correct = res.Failed == 0
	sort.Float64s(lat)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["req_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["req_p50_ms"] = metric{hdQuantile(lat, 0.50), "ms"}
	res.Metrics["req_p99_ms"] = metric{hdQuantile(lat, 0.99), "ms"}
	res.Metrics["peak_heap_mb"] = metric{median(heaps), "MB"}
	return res
}

// median returns the Harrell–Davis median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return hdQuantile(s, 0.5)
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of sorted xs:
// the mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1−q))
// density. Job latencies fall in clusters (one per DAG size); a single
// order statistic jumps across the gap between two clusters when one job
// moves, the weighted mean does not. Every median and percentile the
// benchmark reports uses it.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range sorted {
		c := betaInc(a, b, float64(i+1)/float64(n))
		sum += (c - prev) * x
		prev = c
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Goldens and output digests

func loadGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden outputs: %w", err)
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden outputs %s: %w", path, err)
	}
	return g, nil
}

// recordGolden runs one untraced pass over the full job list (for
// serve-mix: every request the generator can produce) and writes each
// job's output as the golden file.
func recordGolden(opt options) error {
	w, err := newWorkload(opt.workload, opt.tiny)
	if err != nil {
		return err
	}
	if err := w.setup(opt.seed); err != nil {
		return err
	}
	r := newRunner(nil, nil)
	if sm, ok := w.(*serveMix); ok {
		sm.recordAll(r)
	} else {
		w.pass(r)
	}
	if r.failed > 0 {
		return fmt.Errorf("recording: %d jobs failed, first: %s", r.failed, r.notes[0])
	}
	b, err := json.MarshalIndent(r.got, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(opt), append(b, '\n'), 0o644)
}

// fnvHash accumulates a 64-bit FNV-1a digest over fixed-width words.
type fnvHash struct{ h uint64 }

func newFNV() fnvHash { return fnvHash{h: 14695981039346656037} }

func (f *fnvHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f fnvHash) String() string { return fmt.Sprintf("%016x", f.h) }

// scheduleDigest is the benchmark's digest of a schedule: per task, the
// worker and the bits of the start time, then the makespan bits.
func scheduleDigest(worker []int, start []float64, makespan float64) string {
	f := newFNV()
	for i := range worker {
		f.word(uint64(worker[i]))
		f.word(math.Float64bits(start[i]))
	}
	f.word(math.Float64bits(makespan))
	return f.String()
}

func simDigest(res *simulator.Result) string {
	return scheduleDigest(res.Worker, res.Start, res.MakespanSec)
}

func textDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// tol is the relative slack on bound ≤ makespan style invariants: two LP
// solves of equal optima may differ in the last bits.
const tol = 1e-9

func leq(a, b float64) bool { return a <= b*(1+tol) }
