// Command perfbench is the repository's benchmark. It runs one of four
// workloads modelled on the paper for a fixed time, checks every output
// against goldens recorded in golden/, and prints one JSON result line:
//
//	go run . -workload paper-sim -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with -trace 1 it carries the per-layer metrics of a traced
// run (see README.md for the workloads and the layer → metric map).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // the benchmark's directory (goldens live in dir/golden)
	out      string // where traced runs write their spans
	tiny     bool   // a few small jobs per workload, for the benchmark's tests
	record   bool   // write the goldens instead of checking them
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: orders the job list and picks the serve-mix requests")
	fs.Float64Var(&opt.seconds, "seconds", 15, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&opt.dir, "dir", ".", "the benchmark's directory")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory for span files of traced runs")
	fs.BoolVar(&opt.tiny, "tiny", false, "run a tiny job list (tests)")
	fs.BoolVar(&opt.record, "record-golden", false, "record golden outputs instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = traceFlag != 0
	if opt.record {
		if err := recordGolden(opt); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := execute(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up state is the one the timed phase uses.
const setupReps = 5

// execute sets the workload up, runs its timed phase and derives the
// metrics of the requested kind.
func execute(opt options, log io.Writer) (*result, error) {
	var (
		w      workload
		golden map[string]string
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if golden, err = loadGolden(goldenPath(opt)); err != nil {
			return nil, err
		}
		if w, err = newWorkload(opt.workload, opt.tiny); err != nil {
			return nil, err
		}
		if err := w.setup(opt.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	minReqs := 0
	if opt.workload == "serve-mix" && !opt.tiny {
		minReqs = 1000
	}
	dur := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		ps := runPasses(w, golden, dur, minReqs, nil)
		res := endToEnd(ps, setups)
		summarize(log, opt, res, ps)
		return res, nil
	}
	// A traced run measures the same job list untraced and then traced, so
	// it can report the tracing overhead and prove the traced outputs equal
	// the untraced ones.
	plain := runPasses(w, golden, dur/2, 0, nil)
	tr := newTracer()
	traced := runPasses(w, golden, dur/2, 0, tr)
	sameOutputs(plain, traced)
	res := perLayer(tr, plain, traced)
	summarize(log, opt, res, traced)
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

func goldenPath(opt options) string {
	return filepath.Join(opt.dir, "golden", opt.workload+".json")
}

// summarize prints a human-readable table of the result and the first
// failures to log (standard error).
func summarize(log io.Writer, opt options, res *result, ps []passStat) {
	fmt.Fprintf(log, "workload %s seed %d trace %v: %d passes, attempted %d failed %d (fail_ratio %.4g)\n",
		opt.workload, opt.seed, opt.trace, len(ps), res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	shown := 0
	for _, p := range ps {
		for _, note := range p.notes {
			if shown < 10 {
				fmt.Fprintln(log, "  FAIL", note)
			}
			shown++
		}
	}
}
