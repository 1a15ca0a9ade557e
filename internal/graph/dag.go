// Package graph models task graphs (DAGs) of tiled dense linear algebra
// algorithms: tasks with kernel kinds, data footprints over matrix tiles, and
// the dependency structure induced by sequential-consistency dataflow
// analysis — exactly how StarPU derives the DAG from the task submission
// order in Algorithm 1 of the paper.
//
// Besides the Cholesky builder (the paper's subject), LU and QR builders are
// provided for the conclusion's "other dense factorizations" extension; all
// downstream machinery (bounds, schedulers, simulator) is DAG-generic.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Kind identifies a kernel subroutine. The timing tables of
// internal/platform are keyed by Kind.
type Kind int

// Kernel kinds across the supported factorizations. POTRF..GEMM are the four
// Cholesky kernels from the paper; GETRF is used by LU, GEQRT..TSMQR by QR.
const (
	POTRF Kind = iota
	TRSM
	SYRK
	GEMM
	GETRF
	GEQRT
	ORMQR
	TSQRT
	TSMQR
	TRSV     // triangular solve on a vector chunk (the Ly=b / Lᵀx=y pipeline)
	GEMV     // matrix-vector update on a vector chunk
	SPLIT    // tile-size conversion: repack one tile into finer subtiles
	MERGE    // tile-size conversion: repack finer subtiles into one tile
	NumKinds // sentinel: number of kernel kinds
)

var kindNames = [NumKinds]string{"POTRF", "TRSM", "SYRK", "GEMM", "GETRF", "GEQRT", "ORMQR", "TSQRT", "TSMQR", "TRSV", "GEMV", "SPLIT", "MERGE"}

// ConversionKinds lists the tile-size conversion pseudo-kernels introduced by
// the mixed-tile-size Cholesky builder (CholeskySplit). They move data rather
// than compute, so platform timing tables never list them; their cost comes
// from the platform cost model's repacking rate.
var ConversionKinds = []Kind{SPLIT, MERGE}

// IsConversion reports whether k is a tile-size conversion pseudo-kernel.
func (k Kind) IsConversion() bool { return k == SPLIT || k == MERGE }

// String returns the LAPACK-style kernel name.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// CholeskyKinds lists the kernel kinds of the tiled Cholesky factorization in
// the order used throughout the paper (Table I, the LP formulation, ...).
var CholeskyKinds = []Kind{POTRF, TRSM, SYRK, GEMM}

// Access is a data-access mode of a task on a tile.
type Access uint8

// Access modes. ReadWrite covers the in-place updates of Algorithm 1.
const (
	Read Access = iota
	ReadWrite
)

// String names the access mode.
func (a Access) String() string {
	if a == Read {
		return "R"
	}
	return "RW"
}

// TileRef is one entry of a task's data footprint: tile (I, J) accessed with
// the given mode. Footprints drive the simulator's data-transfer model.
type TileRef struct {
	I, J int
	Mode Access
}

// Task is a vertex of the DAG.
type Task struct {
	ID   int
	Kind Kind
	// I, J, K are the loop indices of Algorithm 1 identifying the task
	// (unused indices are −1): POTRF_k, TRSM_i_k, SYRK_j_k, GEMM_i_j_k.
	I, J, K   int
	Footprint []TileRef
	Succ      []int // successor task IDs
	Pred      []int // predecessor task IDs
	// NB is the tile size (in matrix elements) the task operates on. Zero —
	// the value for every task of the uniform builders — means the platform's
	// reference tile size; mixed-tile-size builders set it explicitly. For
	// conversion tasks (SPLIT/MERGE) it is the size of the tile being
	// converted, i.e. the coarse side.
	NB int
}

// Name renders the task in the paper's Figure-1 naming scheme
// (e.g. "GEMM_4_2_1").
func (t *Task) Name() string {
	switch t.Kind {
	case POTRF, GETRF, GEQRT, TRSV:
		return fmt.Sprintf("%s_%d", t.Kind, t.K)
	case SYRK:
		return fmt.Sprintf("%s_%d_%d", t.Kind, t.J, t.K)
	case TRSM, ORMQR, TSQRT, GEMV:
		if t.J >= 0 && t.I >= 0 { // LU/QR tasks carrying both indices
			return fmt.Sprintf("%s_%d_%d_%d", t.Kind, t.I, t.J, t.K)
		}
		if t.I < 0 {
			return fmt.Sprintf("%s_%d_%d", t.Kind, t.J, t.K)
		}
		return fmt.Sprintf("%s_%d_%d", t.Kind, t.I, t.K)
	default:
		return fmt.Sprintf("%s_%d_%d_%d", t.Kind, t.I, t.J, t.K)
	}
}

// DAG is a task graph over a P×P tiled matrix.
//
// Structural queries — the topological order and the (kind, nb) census — are
// answered once per DAG and cached: every bound, scheduler Init and
// simulation asks for them, and recomputing them on a few-hundred-thousand-
// task DAG dominated those callers at large P. So a DAG must not be mutated
// after its first order or census query (TopoOrder, Validate, BottomLevels,
// CriticalPath, ComputeStats, Census, Kinds, CountByKind, NBs); callers that
// need a different DAG build a fresh one. Setting fields of a freshly built
// DAG before any such query is fine: both caches fill lazily.
type DAG struct {
	Algorithm string // "cholesky", "lu", "qr"
	P         int    // tile count per dimension
	Tasks     []*Task

	// TileNB maps a tile coordinate to its size in elements for mixed-tile-
	// size DAGs; nil (the uniform builders) or a missing entry means the
	// platform reference size. Consumers must not range over the map in
	// deterministic code — look tiles up by coordinate instead.
	TileNB map[[2]int]int

	censusOnce sync.Once
	census     []Group // sorted by (NB, Kind)

	orderOnce sync.Once
	order     []int
	orderErr  error
}

// Group is one class of the DAG's census: the tasks of one kernel kind at one
// tile size. The bound LPs and the CP solver price tasks per group.
type Group struct {
	Kind  Kind
	NB    int
	Count int
}

// groups returns the cached census, computing it on first use.
//
//chol:hotpath queried per bound LP build and per scheduler init; steady state must not rescan
func (d *DAG) groups() []Group {
	d.censusOnce.Do(d.takeCensus) //chollint:alloc one-time census build, amortized across all queries
	return d.census
}

// takeCensus counts the tasks per (kind, nb) group. A DAG has a handful of
// groups, so a linear scan finds each task's.
func (d *DAG) takeCensus() {
	var gs []Group
	for _, t := range d.Tasks {
		i := 0
		for i < len(gs) && (gs[i].Kind != t.Kind || gs[i].NB != t.NB) {
			i++
		}
		if i == len(gs) {
			gs = append(gs, Group{Kind: t.Kind, NB: t.NB})
		}
		gs[i].Count++
	}
	slices.SortFunc(gs, func(a, b Group) int {
		if c := cmp.Compare(a.NB, b.NB); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	d.census = gs
}

// Census returns the DAG's task count per (kind, tile size) group, ordered by
// tile size first and kind second. A uniform DAG has one group per kind, all
// at NB 0.
func (d *DAG) Census() []Group {
	return slices.Clone(d.groups())
}

// Kinds returns the distinct kernel kinds present, in ascending order.
func (d *DAG) Kinds() []Kind {
	gs := d.groups()
	if len(gs) == 0 {
		return nil
	}
	ks := make([]Kind, 0, len(gs))
	for _, g := range gs {
		if !slices.Contains(ks, g.Kind) {
			ks = append(ks, g.Kind)
		}
	}
	slices.Sort(ks)
	return ks
}

// CountByKind returns the number of tasks of each kind.
func (d *DAG) CountByKind() map[Kind]int {
	c := make(map[Kind]int, NumKinds)
	for _, g := range d.groups() {
		c[g.Kind] += g.Count
	}
	return c
}

// TileSize returns the size in elements of tile (i, j), or 0 if the tile is
// at the platform reference size (always the case for uniform DAGs).
func (d *DAG) TileSize(i, j int) int {
	if d.TileNB == nil {
		return 0
	}
	return d.TileNB[[2]int{i, j}]
}

// NBs returns the distinct Task.NB values present, in ascending order. A
// uniform DAG yields [0]; mixed-tile DAGs yield the sizes the cost model must
// price.
func (d *DAG) NBs() []int {
	gs := d.groups()
	nbs := make([]int, 0, len(gs))
	for _, g := range gs {
		if !slices.Contains(nbs, g.NB) {
			nbs = append(nbs, g.NB) // ascending: the census is sorted by NB first
		}
	}
	return nbs
}

// Roots returns the IDs of tasks with no predecessors.
func (d *DAG) Roots() []int {
	var r []int
	for _, t := range d.Tasks {
		if len(t.Pred) == 0 {
			r = append(r, t.ID)
		}
	}
	return r
}

// TopoOrder returns a topological order of task IDs (Kahn's algorithm,
// smallest-ID-first for determinism) or an error if the graph has a cycle.
// The order is computed once per DAG; each call returns a fresh copy.
func (d *DAG) TopoOrder() ([]int, error) {
	order, err := d.topo()
	if err != nil {
		return nil, err
	}
	return slices.Clone(order), nil
}

// topo returns the cached topological order, computing it on first use.
// Callers must not modify the returned slice.
//
//chol:hotpath queried per simulation (Validate) and per scheduler init; steady state must not re-sort
func (d *DAG) topo() ([]int, error) {
	d.orderOnce.Do(d.kahn) //chollint:alloc one-time order build, amortized across all queries
	return d.order, d.orderErr
}

// kahn runs Kahn's algorithm with a binary min-heap as the frontier, so the
// smallest ready ID always goes next: O((V+E) log V) for the order that a
// frontier re-sorted on every pop would give.
func (d *DAG) kahn() {
	n := len(d.Tasks)
	indeg := make([]int, n)
	for _, t := range d.Tasks {
		indeg[t.ID] = len(t.Pred)
	}
	// Roots in ascending ID order already form a valid min-heap.
	var heap []int
	for id, deg := range indeg {
		if deg == 0 {
			heap = append(heap, id)
		}
	}
	order := make([]int, 0, n)
	for len(heap) > 0 {
		id := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		siftDown(heap)
		order = append(order, id)
		for _, s := range d.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				heap = append(heap, s)
				siftUp(heap)
			}
		}
	}
	if len(order) != n {
		d.orderErr = fmt.Errorf("graph: cycle detected (%d of %d tasks ordered)", len(order), n)
		return
	}
	d.order = order
}

// siftUp restores the min-heap property after an append.
func siftUp(h []int) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap property after the root was replaced.
func siftDown(h []int) {
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < len(h) && h[l] < h[small] {
			small = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Validate checks structural invariants: IDs dense and matching slice index,
// symmetric Succ/Pred, no self-loops, acyclicity.
func (d *DAG) Validate() error {
	for i, t := range d.Tasks {
		if t.ID != i {
			return fmt.Errorf("graph: task at index %d has ID %d", i, t.ID)
		}
		for _, s := range t.Succ {
			if s == t.ID {
				return fmt.Errorf("graph: self-loop on task %d", t.ID)
			}
			if s < 0 || s >= len(d.Tasks) {
				return fmt.Errorf("graph: dangling successor %d of task %d", s, t.ID)
			}
			if !contains(d.Tasks[s].Pred, t.ID) {
				return fmt.Errorf("graph: edge %d→%d missing reverse link", t.ID, s)
			}
		}
		for _, p := range t.Pred {
			if !contains(d.Tasks[p].Succ, t.ID) {
				return fmt.Errorf("graph: edge %d→%d missing forward link", p, t.ID)
			}
		}
	}
	_, err := d.topo()
	return err
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// BottomLevels returns, for each task, the weight of the longest path from
// the task to an exit task, node weights given by weight (typically a kernel
// execution-time estimate). This is the HEFT priority used by dmdas.
func (d *DAG) BottomLevels(weight func(*Task) float64) ([]float64, error) {
	order, err := d.topo()
	if err != nil {
		return nil, err
	}
	bl := make([]float64, len(d.Tasks))
	for i := len(order) - 1; i >= 0; i-- {
		t := d.Tasks[order[i]]
		best := 0.0
		for _, s := range t.Succ {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[t.ID] = best + weight(t)
	}
	return bl, nil
}

// CriticalPath returns the length of the longest weighted path in the DAG and
// the task IDs along one such path (entry→exit). With weight = fastest
// execution time per task it is the paper's critical-path bound on makespan.
func (d *DAG) CriticalPath(weight func(*Task) float64) (float64, []int, error) {
	bl, err := d.BottomLevels(weight)
	if err != nil {
		return 0, nil, err
	}
	best, start := 0.0, -1
	for id, v := range bl {
		if v > best || start == -1 {
			best, start = v, id
		}
	}
	if start == -1 {
		return 0, nil, nil
	}
	// Walk down successors, always following the max bottom level.
	path := []int{start}
	cur := start
	for {
		t := d.Tasks[cur]
		next, nb := -1, -1.0
		for _, s := range t.Succ {
			if bl[s] > nb {
				nb, next = bl[s], s
			}
		}
		if next == -1 {
			break
		}
		path = append(path, next)
		cur = next
	}
	return best, path, nil
}

// TotalWeight sums weight over all tasks — the sequential-work term of the
// area bound.
func (d *DAG) TotalWeight(weight func(*Task) float64) float64 {
	s := 0.0
	for _, t := range d.Tasks {
		s += weight(t)
	}
	return s
}

// Stats summarizes a DAG's shape: size, span, and the average-parallelism
// ratio W/CP that decides whether a machine can be saturated (the quantity
// behind the paper's "for large matrices, the task-graph ... exhibits a
// sufficient amount of parallelism").
type Stats struct {
	Tasks            int
	Edges            int
	CriticalPathLen  int     // tasks on the longest unit-weight path
	AvgParallelism   float64 // tasks / critical-path length
	MaxWidth         int     // widest antichain layer (by longest-path depth)
	RootCount, Exits int
}

// ComputeStats derives the structural statistics of the DAG.
func (d *DAG) ComputeStats() (Stats, error) {
	st := Stats{Tasks: len(d.Tasks)}
	order, err := d.topo()
	if err != nil {
		return st, err
	}
	depth := make([]int, len(d.Tasks))
	maxDepth := 0
	for _, id := range order {
		t := d.Tasks[id]
		st.Edges += len(t.Succ)
		for _, p := range t.Pred {
			if depth[p]+1 > depth[id] {
				depth[id] = depth[p] + 1
			}
		}
		if depth[id] > maxDepth {
			maxDepth = depth[id]
		}
		if len(t.Pred) == 0 {
			st.RootCount++
		}
		if len(t.Succ) == 0 {
			st.Exits++
		}
	}
	st.CriticalPathLen = maxDepth + 1
	if st.CriticalPathLen > 0 {
		st.AvgParallelism = float64(st.Tasks) / float64(st.CriticalPathLen)
	}
	width := make([]int, maxDepth+1)
	for _, dp := range depth {
		width[dp]++
		if width[dp] > st.MaxWidth {
			st.MaxWidth = width[dp]
		}
	}
	return st, nil
}
