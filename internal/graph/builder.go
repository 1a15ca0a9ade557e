package graph

import "slices"

// builder constructs a DAG by replaying a sequential tiled algorithm and
// inferring dependencies from data accesses, enforcing sequential consistency
// exactly as StarPU does: a reader depends on the last writer of each tile it
// reads; a writer depends on the last writer and on every reader since.
//
// build replays the algorithm twice. The counting pass only sizes the task
// and footprint slabs and the tile grid; the filling pass writes tasks into
// those slabs and wires dependencies through dense per-tile state, so a
// build allocates per slab, not per task. Only the edge buffer can grow,
// since edges are known only once the dataflow has run.
type builder struct {
	counting bool
	nTasks   int       // tasks emitted so far in this pass
	nRefs    int       // footprint entries emitted so far in this pass
	nReads   int       // Read entries emitted so far in this pass
	side     int       // tile grid side: 1 + the largest tile coordinate
	scratch  Task      // what the counting pass hands back from task
	tasks    []Task    // task slab
	refs     []TileRef // footprint slab
	preds    []int32   // Pred lists concatenated in task order
	predOff  []int32   // task id's list is preds[predOff[id]:predOff[id+1]]

	// Dataflow state per tile, indexed by tile(): the last writer (−1:
	// none) and the head of the linked list of readers since that write.
	// Reader-list nodes live in readTask/readNext, one per Read entry.
	lastWriter []int32
	readHead   []int32
	readTask   []int32
	readNext   []int32
	mark       []int32 // mark[p] = id+1 once p is a dependency of task id
}

// build runs emit, which replays an algorithm through b.task, once to count
// and once to fill, and returns the resulting DAG. emit must emit the same
// tasks on both runs and have no other effect.
func build(alg string, p int, emit func(b *builder)) *DAG {
	b := &builder{counting: true}
	emit(b)
	b.alloc()
	emit(b)
	return b.finish(alg, p)
}

// alloc sizes every slab from the counting pass and arms the filling pass.
func (b *builder) alloc() {
	n, tiles := b.nTasks, b.side*(b.side+1)
	b.tasks = make([]Task, n)
	b.refs = make([]TileRef, b.nRefs)
	b.preds = make([]int32, 0, b.nRefs) // a first guess: one edge per entry
	b.predOff = make([]int32, n+1)
	b.lastWriter = make([]int32, tiles)
	b.readHead = make([]int32, tiles)
	for i := range b.lastWriter {
		b.lastWriter[i], b.readHead[i] = -1, -1
	}
	b.readTask = make([]int32, b.nReads)
	b.readNext = make([]int32, b.nReads)
	b.mark = make([]int32, n+1) // one spare entry: finish reuses it for Succ offsets
	b.counting, b.nTasks, b.nRefs, b.nReads = false, 0, 0, 0
}

// tile indexes the dataflow state of tile (I, J), for I ≥ 0 and J ≥ −1:
// column −1 holds the vector chunks of the triangular solves.
func (b *builder) tile(r TileRef) int { return r.I*(b.side+1) + r.J + 1 }

// task appends a task accessing the given tiles and wires its dependencies.
// The counting pass returns a scratch task, so callers may set fields on the
// result in either pass.
func (b *builder) task(kind Kind, i, j, k int, refs ...TileRef) *Task {
	if b.counting {
		b.nTasks++
		b.nRefs += len(refs)
		for _, r := range refs {
			b.side = max(b.side, r.I+1, r.J+1)
			if r.Mode == Read {
				b.nReads++
			}
		}
		return &b.scratch
	}
	id := b.nTasks
	b.nTasks++
	t := &b.tasks[id]
	*t = Task{ID: id, Kind: kind, I: i, J: j, K: k}
	if len(refs) > 0 {
		end := b.nRefs + len(refs)
		t.Footprint = b.refs[b.nRefs:end:end]
		copy(t.Footprint, refs)
		b.nRefs = end
	}
	start := len(b.preds)
	for _, r := range refs {
		x := b.tile(r)
		if w := b.lastWriter[x]; w >= 0 {
			b.dep(w, id)
		}
		if r.Mode == ReadWrite {
			for n := b.readHead[x]; n >= 0; n = b.readNext[n] {
				b.dep(b.readTask[n], id)
			}
		}
	}
	slices.Sort(b.preds[start:])
	b.predOff[id+1] = int32(len(b.preds))
	// Update dataflow state after dependencies are wired.
	for _, r := range refs {
		x := b.tile(r)
		if r.Mode == ReadWrite {
			b.lastWriter[x], b.readHead[x] = int32(id), -1
		} else {
			b.readTask[b.nReads], b.readNext[b.nReads] = int32(id), b.readHead[x]
			b.readHead[x] = int32(b.nReads)
			b.nReads++
		}
	}
	return t
}

// dep records p as a predecessor of task id, once.
func (b *builder) dep(p int32, id int) {
	if int(p) != id && b.mark[p] != int32(id+1) {
		b.mark[p] = int32(id + 1)
		b.preds = append(b.preds, p)
	}
}

// finish lays Pred and Succ out as one compressed adjacency slab of exact
// size. Every list is capped, so appending to one task's list copies it
// instead of writing into its neighbour's.
func (b *builder) finish(alg string, p int) *DAG {
	// The dataflow state is dead: drop it so that a collection during finish
	// can reclaim it (it sets the peak heap of a large build).
	b.lastWriter, b.readHead, b.readTask, b.readNext = nil, nil, nil, nil
	n, e := b.nTasks, len(b.preds)
	adj := make([]int, 2*e)
	pred, succ := adj[:e], adj[e:]
	// Count each task's successors, and prefix-sum the counts into the end
	// of each task's Succ list.
	succOff := b.mark
	clear(succOff)
	for i, q := range b.preds {
		pred[i] = int(q)
		succOff[q]++
	}
	var end int32
	for q := range succOff {
		end += succOff[q]
		succOff[q] = end
	}
	// Filling from the highest task ID down leaves every Succ list ascending
	// and moves succOff[q] back to the start of q's list.
	for id := n - 1; id >= 0; id-- {
		for _, q := range b.preds[b.predOff[id]:b.predOff[id+1]] {
			succOff[q]--
			succ[succOff[q]] = id
		}
	}
	d := &DAG{Algorithm: alg, P: p, Tasks: make([]*Task, n)}
	for id := range b.tasks {
		t := &b.tasks[id]
		t.Pred = capped(pred, b.predOff[id], b.predOff[id+1])
		t.Succ = capped(succ, succOff[id], succOff[id+1])
		d.Tasks[id] = t
	}
	return d
}

// capped returns s[lo:hi] with no spare capacity, or nil if it is empty.
func capped(s []int, lo, hi int32) []int {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// Cholesky builds the task graph of the tiled Cholesky factorization of a
// p×p tiled matrix (Algorithm 1; Figure 1 of the paper shows p = 5).
// Task counts: p POTRF, p(p−1)/2 TRSM, p(p−1)/2 SYRK, p(p−1)(p−2)/6 GEMM.
func Cholesky(p int) *DAG {
	return build("cholesky", p, func(b *builder) {
		for k := 0; k < p; k++ {
			b.task(POTRF, -1, -1, k, TileRef{k, k, ReadWrite})
			for i := k + 1; i < p; i++ {
				b.task(TRSM, i, -1, k,
					TileRef{k, k, Read},
					TileRef{i, k, ReadWrite})
			}
			for j := k + 1; j < p; j++ {
				b.task(SYRK, -1, j, k,
					TileRef{j, k, Read},
					TileRef{j, j, ReadWrite})
				for i := j + 1; i < p; i++ {
					b.task(GEMM, i, j, k,
						TileRef{i, k, Read},
						TileRef{j, k, Read},
						TileRef{i, j, ReadWrite})
				}
			}
		}
	})
}

// LU builds the task graph of a tiled LU factorization without pivoting
// (right-looking): GETRF on the diagonal, TRSM on row and column panels,
// GEMM trailing updates. Used by the "other factorizations" extension.
func LU(p int) *DAG {
	return build("lu", p, func(b *builder) {
		for k := 0; k < p; k++ {
			b.task(GETRF, -1, -1, k, TileRef{k, k, ReadWrite})
			for j := k + 1; j < p; j++ { // row panel: Akj ← Lkk⁻¹·Akj
				b.task(TRSM, k, j, k,
					TileRef{k, k, Read},
					TileRef{k, j, ReadWrite})
			}
			for i := k + 1; i < p; i++ { // column panel: Aik ← Aik·Ukk⁻¹
				b.task(TRSM, i, k, k,
					TileRef{k, k, Read},
					TileRef{i, k, ReadWrite})
			}
			for i := k + 1; i < p; i++ {
				for j := k + 1; j < p; j++ {
					b.task(GEMM, i, j, k,
						TileRef{i, k, Read},
						TileRef{k, j, Read},
						TileRef{i, j, ReadWrite})
				}
			}
		}
	})
}

// QR builds the task graph of the tiled QR factorization (PLASMA-style
// flat-tree: GEQRT on the diagonal, ORMQR on the row, TSQRT down the panel,
// TSMQR trailing updates). Used by the "other factorizations" extension.
func QR(p int) *DAG {
	return build("qr", p, func(b *builder) {
		for k := 0; k < p; k++ {
			b.task(GEQRT, -1, -1, k, TileRef{k, k, ReadWrite})
			for j := k + 1; j < p; j++ {
				b.task(ORMQR, k, j, k,
					TileRef{k, k, Read},
					TileRef{k, j, ReadWrite})
			}
			for i := k + 1; i < p; i++ {
				b.task(TSQRT, i, -1, k,
					TileRef{k, k, ReadWrite},
					TileRef{i, k, ReadWrite})
				for j := k + 1; j < p; j++ {
					b.task(TSMQR, i, j, k,
						TileRef{i, k, Read},
						TileRef{k, j, ReadWrite},
						TileRef{i, j, ReadWrite})
				}
			}
		}
	})
}

// CholeskyLeftLooking builds the task graph of the *left-looking* tiled
// Cholesky variant: updates are applied lazily when a panel is reached,
// instead of eagerly after each factorization step (the right-looking
// Algorithm 1). Same kernels, same task counts, different dependency
// structure — left-looking has a longer critical path but touches each tile
// write-once per phase, a classic locality/parallelism trade-off that the
// schedulers and bounds can now measure.
func CholeskyLeftLooking(p int) *DAG {
	return build("cholesky", p, func(b *builder) {
		for j := 0; j < p; j++ {
			// Accumulate all updates from previous panels into column j.
			for k := 0; k < j; k++ {
				b.task(SYRK, -1, j, k,
					TileRef{j, k, Read},
					TileRef{j, j, ReadWrite})
			}
			b.task(POTRF, -1, -1, j, TileRef{j, j, ReadWrite})
			for i := j + 1; i < p; i++ {
				for k := 0; k < j; k++ {
					b.task(GEMM, i, j, k,
						TileRef{i, k, Read},
						TileRef{j, k, Read},
						TileRef{i, j, ReadWrite})
				}
				b.task(TRSM, i, -1, j,
					TileRef{j, j, Read},
					TileRef{i, j, ReadWrite})
			}
		}
	})
}
