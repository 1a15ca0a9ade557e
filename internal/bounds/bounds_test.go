package bounds

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/platform"
)

func TestAreaBoundHomogeneousIsWorkOverM(t *testing.T) {
	// On a homogeneous platform the area bound is total work / m.
	p := platform.Homogeneous(9)
	for _, n := range []int{2, 4, 8} {
		d := graph.Cholesky(n)
		want := d.TotalWeight(func(tk *graph.Task) float64 { return p.Time(0, tk.Kind) }) / 9
		r, err := Area(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.MakespanSec-want) > 1e-6*want {
			t.Fatalf("n=%d: area %g, want %g", n, r.MakespanSec, want)
		}
	}
}

func TestMixedAtLeastArea(t *testing.T) {
	p := platform.Mirage()
	for _, n := range []int{2, 4, 8, 12, 16} {
		d := graph.Cholesky(n)
		a, err := Area(d, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Mixed(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if m.MakespanSec < a.MakespanSec-1e-9 {
			t.Fatalf("n=%d: mixed %g < area %g", n, m.MakespanSec, a.MakespanSec)
		}
	}
}

func TestIntAtLeastRelaxation(t *testing.T) {
	p := platform.Mirage()
	for _, n := range []int{2, 4, 8} {
		d := graph.Cholesky(n)
		a, _ := Area(d, p)
		ai, err := AreaInt(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if ai.MakespanSec < a.MakespanSec-1e-9 {
			t.Fatalf("n=%d: int area below relaxation", n)
		}
		m, _ := Mixed(d, p)
		mi, err := MixedInt(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if mi.MakespanSec < m.MakespanSec-1e-9 {
			t.Fatalf("n=%d: int mixed below relaxation", n)
		}
	}
}

func TestAssignmentCoversAllTasks(t *testing.T) {
	p := platform.Mirage()
	d := graph.Cholesky(8)
	r, err := AreaInt(d, p)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.CountByKind()
	for _, k := range graph.CholeskyKinds {
		sum := 0.0
		for cls := range r.Assignment {
			sum += r.Assignment[cls][k]
		}
		if math.Abs(sum-float64(counts[k])) > 1e-6 {
			t.Fatalf("%v: assigned %g, want %d", k, sum, counts[k])
		}
	}
}

func TestMixedBoundPOTRFNotAllOnCPU(t *testing.T) {
	// The paper: the plain area bound puts all POTRFs on CPUs (they are
	// relatively cheap there); the chain constraint makes that unattractive
	// for small matrices since POTRFs then serialize into the makespan.
	p := platform.Mirage()
	d := graph.Cholesky(4)
	a, _ := AreaInt(d, p)
	if a.Assignment[0][graph.POTRF] != 4 {
		t.Fatalf("area bound should place all POTRFs on CPU, got %v", a.Assignment[0])
	}
}

func TestCriticalPathBoundSmallN(t *testing.T) {
	// For p=1 the DAG is one POTRF: bound = fastest POTRF time.
	p := platform.Mirage()
	d := graph.Cholesky(1)
	r, err := CriticalPath(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MakespanSec-p.FastestTime(graph.POTRF)) > 1e-12 {
		t.Fatalf("cp bound %g", r.MakespanSec)
	}
}

func TestCriticalPathFormula(t *testing.T) {
	// Chain = p·POTRF* + (p−1)·(TRSM* + SYRK*) at fastest times; for Mirage
	// the DAG critical path equals exactly this chain.
	p := platform.Mirage()
	for _, n := range []int{2, 5, 10} {
		d := graph.Cholesky(n)
		r, err := CriticalPath(d, p)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n)*p.FastestTime(graph.POTRF) +
			float64(n-1)*(p.FastestTime(graph.TRSM)+p.FastestTime(graph.SYRK))
		if math.Abs(r.MakespanSec-want) > 1e-9 {
			t.Fatalf("n=%d: cp %g, want %g", n, r.MakespanSec, want)
		}
	}
}

func TestGemmPeakBound(t *testing.T) {
	p := platform.Mirage()
	flops := kernels.CholeskyFlops(16 * platform.TileNB)
	r := GemmPeak(flops, p, platform.TileNB)
	if g := r.GFlops(flops); math.Abs(g-960) > 1 {
		t.Fatalf("GEMM peak bound = %g GFLOP/s, want ≈960", g)
	}
}

func TestFigure2Shape(t *testing.T) {
	// The mixed bound is the tightest upper bound on performance: for every
	// size, perf(mixed) ≤ perf(area) ≤ perf(GEMM peak), and at small n the
	// critical path also binds tighter than GEMM peak.
	p := platform.Mirage()
	for _, n := range []int{2, 4, 8, 16, 24} {
		all, err := Compute(n, platform.TileNB, p)
		if err != nil {
			t.Fatal(err)
		}
		flops := kernels.CholeskyFlops(n * platform.TileNB)
		mg, ag, gg := all.Mixed.GFlops(flops), all.Area.GFlops(flops), all.GemmPeak.GFlops(flops)
		if mg > ag+1e-6 {
			t.Fatalf("n=%d: mixed perf %g above area %g", n, mg, ag)
		}
		if ag > gg+1e-6 {
			t.Fatalf("n=%d: area perf %g above GEMM peak %g", n, ag, gg)
		}
	}
	// At n=2 the critical path dominates (lowest GFLOP/s bound).
	all, _ := Compute(2, platform.TileNB, p)
	flops := kernels.CholeskyFlops(2 * platform.TileNB)
	if all.CriticalPath.GFlops(flops) > all.Area.GFlops(flops) {
		t.Fatal("at n=2 critical path should bind tighter than area")
	}
	// At n=32 the bounds approach GEMM peak: mixed within 20 %.
	all32, err := Compute(32, platform.TileNB, p)
	if err != nil {
		t.Fatal(err)
	}
	f32 := kernels.CholeskyFlops(32 * platform.TileNB)
	if all32.Mixed.GFlops(f32) < 0.8*all32.GemmPeak.GFlops(f32) {
		t.Fatalf("n=32: mixed %g too far below GEMM peak %g",
			all32.Mixed.GFlops(f32), all32.GemmPeak.GFlops(f32))
	}
}

func TestBestIsMax(t *testing.T) {
	all := All{
		CriticalPath: Result{MakespanSec: 1},
		Area:         Result{MakespanSec: 3},
		Mixed:        Result{MakespanSec: 4},
		GemmPeak:     Result{MakespanSec: 2},
	}
	if all.Best() != 4 {
		t.Fatalf("Best = %g", all.Best())
	}
}

func TestMixedRejectsUnknownAlgorithmAndIncapablePlatform(t *testing.T) {
	// A DAG with no chain spec is rejected.
	d := graph.Cholesky(3)
	d.Algorithm = "mystery"
	if _, err := Mixed(d, platform.Mirage()); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	// A platform without QR kernel timings cannot bound a QR DAG.
	if _, err := Mixed(graph.QR(3), platform.Mirage()); err == nil {
		t.Fatal("expected error for QR on plain Mirage")
	}
}

func TestMixedBoundLUAndQR(t *testing.T) {
	// The generalized diagonal-chain bound applies to the extension
	// factorizations on the extended Mirage model and tightens the area
	// bound at small sizes.
	p := platform.MirageExtended()
	for _, d := range []*graph.DAG{graph.LU(4), graph.QR(4)} {
		a, err := AreaInt(d, p)
		if err != nil {
			t.Fatalf("%s area: %v", d.Algorithm, err)
		}
		m, err := MixedInt(d, p)
		if err != nil {
			t.Fatalf("%s mixed: %v", d.Algorithm, err)
		}
		if m.MakespanSec < a.MakespanSec-1e-12 {
			t.Fatalf("%s: mixed %g below area %g", d.Algorithm, m.MakespanSec, a.MakespanSec)
		}
		if m.MakespanSec < a.MakespanSec*1.01 {
			t.Fatalf("%s: chain constraint did not tighten the bound at n=4", d.Algorithm)
		}
		// The chain itself is a DAG path, so the critical-path bound is at
		// least the chain's fastest-time length; mixed ≥ that chain too.
		cp, err := CriticalPath(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if cp.MakespanSec <= 0 {
			t.Fatal("empty critical path")
		}
	}
}

func TestMixedBoundLUSoundAgainstCriticalPath(t *testing.T) {
	// Both are lower bounds; neither may exceed a simulated makespan. This
	// is covered end to end in the simulator tests; here check internal
	// consistency: mixed ≥ the chain portion it encodes.
	p := platform.MirageExtended()
	d := graph.LU(6)
	m, err := MixedInt(d, p)
	if err != nil {
		t.Fatal(err)
	}
	chain := 6*p.FastestTime(graph.GETRF) +
		5*(p.FastestTime(graph.TRSM)+p.FastestTime(graph.GEMM))
	if m.MakespanSec < chain-1e-9 {
		t.Fatalf("mixed %g below its own chain %g", m.MakespanSec, chain)
	}
}

func TestAreaWorksForLU(t *testing.T) {
	// The area bound is DAG-generic; give the platform GETRF timing first.
	p := platform.Mirage()
	p.Classes[0].Times[graph.GETRF] = p.Classes[0].Times[graph.POTRF] * 2
	p.Classes[1].Times[graph.GETRF] = p.Classes[1].Times[graph.POTRF]
	d := graph.LU(4)
	r, err := Area(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanSec <= 0 {
		t.Fatal("non-positive LU area bound")
	}
}

func TestAreaUnrunnableClassPinnedToZero(t *testing.T) {
	// GPUs cannot run GETRF here: all GETRF work must land on CPUs.
	p := platform.Mirage()
	p.Classes[0].Times[graph.GETRF] = 0.05
	d := graph.LU(3)
	r, err := AreaInt(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Assignment[1][graph.GETRF] != 0 {
		t.Fatalf("GETRF assigned to GPU: %v", r.Assignment[1])
	}
	if r.Assignment[0][graph.GETRF] != 3 {
		t.Fatalf("GETRF on CPU = %g, want 3", r.Assignment[0][graph.GETRF])
	}
}

func TestMixedDominatesAtSmallSizes(t *testing.T) {
	// Figure 2's message: the mixed bound is strictly tighter than the area
	// bound for small matrices on Mirage.
	p := platform.Mirage()
	d := graph.Cholesky(4)
	a, _ := AreaInt(d, p)
	m, _ := MixedInt(d, p)
	if !(m.MakespanSec > a.MakespanSec*1.01) {
		t.Fatalf("mixed %g not strictly tighter than area %g at n=4",
			m.MakespanSec, a.MakespanSec)
	}
}

func TestComputeAllSizesQuick(t *testing.T) {
	p := platform.Mirage()
	prevMixed := math.Inf(1)
	for n := 2; n <= 12; n += 2 {
		all, err := Compute(n, platform.TileNB, p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		flops := kernels.CholeskyFlops(n * platform.TileNB)
		// Performance bounds grow with matrix size (more parallelism).
		g := all.Mixed.GFlops(flops)
		if n > 2 && g < 0 {
			t.Fatal("negative bound")
		}
		_ = prevMixed
		prevMixed = g
	}
}

// TestMergeSingleKeepsBounds checks that merging a single mixed-tile DAG
// leaves its DAG-generic bounds unchanged: Merge must carry every task's
// tile size, or the fine tasks are priced at the coarse reference size and
// the "lower" bound overshoots.
func TestMergeSingleKeepsBounds(t *testing.T) {
	p := platform.MirageExtended()
	p.Model = platform.ModelScaled
	d := graph.CholeskySplit(8, 4, 2, platform.TileNB)
	m := graph.Merge(d)
	for name, bound := range map[string]func(*graph.DAG, *platform.Platform) (Result, error){
		"Area": Area, "AreaInt": AreaInt, "CriticalPath": CriticalPath,
	} {
		want, err := bound(d, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bound(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.MakespanSec != want.MakespanSec {
			t.Errorf("%s: merged %g s, unmerged %g s", name, got.MakespanSec, want.MakespanSec)
		}
	}
}
