package graph

// Merge composes independent DAGs into one (a batched workload: several
// factorizations in flight at once, as dense solvers do for block-diagonal
// systems or multiple right-hand sides). Task IDs are renumbered densely;
// tile coordinates are offset per input so footprints never collide, which
// keeps the simulator's data-transfer model faithful. Tile sizes carry over:
// Task.NB as is, TileNB entries at their offset coordinates. No cross-DAG
// edges are added — the scheduler is free to interleave.
func Merge(dags ...*DAG) *DAG {
	out := &DAG{Algorithm: "batch"}
	// Input i's tiles move to rows and columns [i·stride, (i+1)·stride): the
	// stride clears P and every tile coordinate in use, including the fine
	// tiles CholeskySplit places beyond P.
	stride := 0
	for _, d := range dags {
		stride = max(stride, d.P, maxTile(d)+1)
		out.P = max(out.P, d.P)
	}
	stride++
	for bi, d := range dags {
		base := len(out.Tasks)
		off := bi * stride
		shift := func(i, j int) (int, int) {
			if j >= 0 {
				j += off
			}
			return i + off, j
		}
		for _, t := range d.Tasks {
			nt := &Task{
				ID:   base + t.ID,
				Kind: t.Kind,
				I:    t.I, J: t.J, K: t.K,
				NB: t.NB,
			}
			for _, ref := range t.Footprint {
				i, j := shift(ref.I, ref.J)
				nt.Footprint = append(nt.Footprint, TileRef{I: i, J: j, Mode: ref.Mode})
			}
			for _, p := range t.Pred {
				nt.Pred = append(nt.Pred, base+p)
			}
			for _, s := range t.Succ {
				nt.Succ = append(nt.Succ, base+s)
			}
			out.Tasks = append(out.Tasks, nt)
		}
		if d.TileNB != nil && out.TileNB == nil {
			out.TileNB = make(map[[2]int]int, len(d.TileNB))
		}
		for tile, nb := range d.TileNB { // map-to-map copy: order-free
			i, j := shift(tile[0], tile[1])
			out.TileNB[[2]int{i, j}] = nb
		}
	}
	return out
}

// maxTile returns the largest tile coordinate in d's footprints and TileNB,
// or −1 if it has none.
func maxTile(d *DAG) int {
	m := -1
	for _, t := range d.Tasks {
		for _, r := range t.Footprint {
			m = max(m, r.I, r.J)
		}
	}
	for tile := range d.TileNB { // extremum fold: order-free
		m = max(m, tile[0], tile[1])
	}
	return m
}
