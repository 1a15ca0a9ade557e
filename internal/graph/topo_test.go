package graph

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refTopoOrder is the specification of TopoOrder: Kahn's algorithm with a
// frontier re-sorted before every pop, so the smallest ready ID goes next.
func refTopoOrder(d *DAG) []int {
	indeg := make([]int, len(d.Tasks))
	for _, t := range d.Tasks {
		indeg[t.ID] = len(t.Pred)
	}
	var frontier, order []int
	for id, deg := range indeg {
		if deg == 0 {
			frontier = append(frontier, id)
		}
	}
	for len(frontier) > 0 {
		sort.Ints(frontier)
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, s := range d.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != len(d.Tasks) {
		return nil
	}
	return order
}

// permuted renumbers d's tasks by a random permutation, so IDs no longer
// follow submission order and edges run from high IDs to low ones too.
func permuted(d *DAG, seed int64) *DAG {
	perm := rand.New(rand.NewSource(seed)).Perm(len(d.Tasks))
	out := &DAG{Algorithm: d.Algorithm, P: d.P, Tasks: make([]*Task, len(d.Tasks))}
	for _, t := range d.Tasks {
		nt := &Task{ID: perm[t.ID], Kind: t.Kind, I: t.I, J: t.J, K: t.K, NB: t.NB, Footprint: t.Footprint}
		for _, p := range t.Pred {
			nt.Pred = append(nt.Pred, perm[p])
		}
		for _, s := range t.Succ {
			nt.Succ = append(nt.Succ, perm[s])
		}
		out.Tasks[nt.ID] = nt
	}
	return out
}

func TestTopoOrderMatchesSortedFrontier(t *testing.T) {
	check := func(name string, d *DAG) {
		t.Helper()
		got, err := d.TopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refTopoOrder(d); !slices.Equal(got, want) {
			t.Fatalf("%s: heap order differs from the sorted-frontier order", name)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		check("random", RandomLayered(8, 9, 0.3, seed))
		check("random/permuted", permuted(RandomLayered(8, 9, 0.3, seed), seed))
	}
	for _, d := range []*DAG{Cholesky(7), LU(5), QR(5), BackwardSolve(6), CholeskySplit(5, 2, 2, 960)} {
		for seed := int64(0); seed < 5; seed++ {
			pd := permuted(d, seed)
			if err := pd.Validate(); err != nil {
				t.Fatalf("%s permuted: %v", d.Algorithm, err)
			}
			check(d.Algorithm+"/permuted", pd)
		}
	}
}

func TestCycleErrorsOnEveryCall(t *testing.T) {
	cyclic := func() *DAG {
		return &DAG{Tasks: []*Task{
			{ID: 0, Succ: []int{1}},
			{ID: 1, Succ: []int{2}, Pred: []int{0, 2}},
			{ID: 2, Succ: []int{1}, Pred: []int{1}},
		}}
	}
	unit := func(*Task) float64 { return 1 }
	// Fresh DAGs for each first caller, so every entry point meets both the
	// computing call and the cached one.
	for first := 0; first < 3; first++ {
		d := cyclic()
		for call := 0; call < 3; call++ {
			for i := 0; i < 3; i++ {
				var err error
				switch (first + i) % 3 {
				case 0:
					var order []int
					order, err = d.TopoOrder()
					if order != nil {
						t.Fatalf("TopoOrder returned %v on a cycle", order)
					}
				case 1:
					err = d.Validate()
				case 2:
					var bl []float64
					bl, err = d.BottomLevels(unit)
					if bl != nil {
						t.Fatalf("BottomLevels returned %v on a cycle", bl)
					}
				}
				if err == nil {
					t.Fatalf("first=%d call=%d entry %d: no cycle error", first, call, (first+i)%3)
				}
			}
		}
	}
}

func TestTopoOrderReturnsCopy(t *testing.T) {
	d := Cholesky(6)
	w := func(t *Task) float64 { return float64(t.Kind) + 1 }
	want, err := d.BottomLevels(w)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := d.TopoOrder()
	slices.Reverse(order)
	order[0] = -1
	got, err := d.BottomLevels(w)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("mutating a returned order changed BottomLevels")
	}
	again, _ := d.TopoOrder()
	if !slices.Equal(again, refTopoOrder(d)) {
		t.Fatal("mutating a returned order changed the next TopoOrder")
	}
}

// TestConcurrentFirstQueries races every cached query on one fresh DAG; run
// under -race it checks that the caches publish safely.
func TestConcurrentFirstQueries(t *testing.T) {
	d := CholeskySplit(8, 4, 2, 960)
	ref := CholeskySplit(8, 4, 2, 960)
	wantOrder := refTopoOrder(ref)
	wantCensus := ref.Census()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if order, err := d.TopoOrder(); err != nil || !slices.Equal(order, wantOrder) {
					errs <- "TopoOrder"
				}
			case 1:
				if err := d.Validate(); err != nil {
					errs <- "Validate"
				}
			case 2:
				if _, err := d.BottomLevels(func(*Task) float64 { return 1 }); err != nil {
					errs <- "BottomLevels"
				}
			case 3:
				if !slices.Equal(d.Census(), wantCensus) || len(d.NBs()) != 2 || len(d.Kinds()) != 6 {
					errs <- "census"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("%s disagrees under concurrent first calls", e)
	}
}

func TestCensus(t *testing.T) {
	d := CholeskySplit(6, 3, 2, 960)
	census := d.Census()
	total := 0
	for i, g := range census {
		total += g.Count
		if i > 0 {
			p := census[i-1]
			if p.NB > g.NB || p.NB == g.NB && p.Kind >= g.Kind {
				t.Fatalf("census not ordered by (NB, Kind): %v", census)
			}
		}
		n := 0
		for _, tk := range d.Tasks {
			if tk.Kind == g.Kind && tk.NB == g.NB {
				n++
			}
		}
		if n != g.Count {
			t.Fatalf("group %v: %d tasks", g, n)
		}
	}
	if total != len(d.Tasks) {
		t.Fatalf("census counts %d of %d tasks", total, len(d.Tasks))
	}
	census[0].Count = -1
	if d.Census()[0].Count == -1 {
		t.Fatal("Census returned the cached slice")
	}
	if nbs := (&DAG{}).NBs(); nbs == nil || len(nbs) != 0 {
		t.Fatalf("empty DAG NBs() = %#v, want an empty non-nil slice", nbs)
	}
}

// TestSlabNeighboursIndependent appends to every task's lists in turn and
// checks that no other task, each sharing the builder's slabs, changes.
func TestSlabNeighboursIndependent(t *testing.T) {
	for _, d := range []*DAG{Cholesky(5), ForwardSolve(4), CholeskySplit(4, 2, 2, 960)} {
		snapshot := func() []int {
			var s []int
			for _, tk := range d.Tasks {
				s = append(s, len(tk.Pred), len(tk.Succ), len(tk.Footprint))
				s = append(s, tk.Pred...)
				s = append(s, tk.Succ...)
				for _, r := range tk.Footprint {
					s = append(s, r.I, r.J, int(r.Mode))
				}
			}
			return s
		}
		want := snapshot()
		for i, tk := range d.Tasks {
			_ = append(tk.Pred, -7)
			_ = append(tk.Succ, -7)
			_ = append(tk.Footprint, TileRef{-7, -7, ReadWrite})
			if !slices.Equal(snapshot(), want) {
				t.Fatalf("%s: appending to task %d's lists changed another task", d.Algorithm, i)
			}
		}
	}
}
