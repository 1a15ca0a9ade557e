package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one tiny pass of workload and returns its result line.
func runTiny(t *testing.T, dir, workload, trace string) result {
	t.Helper()
	var out, log bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0", "-trace", trace,
		"-tiny", "-dir", dir, "-out", t.TempDir()}
	if code := run(args, &out, &log); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTinyPassEmitsEveryMetric(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			res := runTiny(t, ".", w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedGoldenIsAFailure(t *testing.T) {
	dir := t.TempDir()
	golden, err := loadGolden(filepath.Join("golden", "paper-sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	key := "sim/n=4/mirage/dmdas"
	if _, ok := golden[key]; !ok {
		t.Fatalf("no golden for %s", key)
	}
	golden[key] = "0000000000000000"
	b, _ := json.Marshal(golden)
	if err := os.MkdirAll(filepath.Join(dir, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden", "paper-sim.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	res := runTiny(t, dir, "paper-sim", "0")
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted golden: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

func jobList(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(seed); err != nil {
		t.Fatal(err)
	}
	return w.keys()
}

func TestSeedOrdersTheJobList(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := jobList(t, name, 7), jobList(t, name, 7), jobList(t, name, 8)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different job lists", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same order", name)
		}
		slices.Sort(a)
		slices.Sort(c)
		if !slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated different jobs, not just another order", name)
		}
	}
}

func TestDecoratorKeepsExtensions(t *testing.T) {
	p, err := core.NewPlatform("mirage")
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Cholesky(3)
	plan, err := sched.HEFT(d, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{sched.NewDMDAS(), sched.NewRandom(), plan.Scheduler("inject")} {
		w, _ := decorate(s)
		_, g1 := s.(sched.Gater)
		_, g2 := w.(sched.Gater)
		_, r1 := s.(sched.ClassRestricter)
		_, r2 := w.(sched.ClassRestricter)
		_, c1 := s.(sched.CostModel)
		_, c2 := w.(sched.CostModel)
		if g1 != g2 || r1 != r2 || c1 != c2 {
			t.Errorf("%s: extensions (Gater, ClassRestricter, CostModel) = (%v, %v, %v), decorated (%v, %v, %v)",
				s.Name(), g1, r1, c1, g2, r2, c2)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 101; i++ {
		xs = append(xs, float64(i))
	}
	if m := hdQuantile(xs, 0.5); m < 50.99 || m > 51.01 {
		t.Errorf("median of 1..101 = %g, want 51", m)
	}
	if got := hdQuantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("quantile of one sample = %g, want 4", got)
	}
}
