package main

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/platform"
)

// bounds-ladder: the bound pipeline alone, no simulator call. Each DAG is
// built once and queried (critical path, integral area, integral mixed) on
// every platform of its rung, so the first query sees a cold kind census
// and the later ones a warm census.

var (
	ladderPlatforms = []string{"mirage", "related:20", "homogeneous:12"}
	otherPlatforms  = []string{"mirage-extended"}
)

// A rung is one DAG of the ladder and the platforms it is queried on.
type rung struct {
	family string
	n      int
	build  func() *graph.DAG
	plats  []string
}

func ladderUnits(rng *rand.Rand, tiny bool) ([]unit, func() error, error) {
	chol, other := []int{16, 32, 64, 128}, []int{16, 32}
	if tiny {
		chol, other = []int{16}, []int{16}
	}
	pfs, err := platforms(append(ladderPlatforms, otherPlatforms...)...)
	if err != nil {
		return nil, nil, err
	}
	// Mixed-tile DAGs are priced by scaling the reference tables.
	split := pfs["mirage-extended"].Clone()
	split.Model = platform.ModelScaled
	pfs["mirage-extended/scaled"] = split

	var rungs []rung
	for _, n := range chol {
		n := n
		rungs = append(rungs, rung{"cholesky", n, func() *graph.DAG { return graph.Cholesky(n) }, ladderPlatforms})
	}
	for _, n := range other {
		n := n
		rungs = append(rungs,
			rung{"lu", n, func() *graph.DAG { return graph.LU(n) }, otherPlatforms},
			rung{"qr", n, func() *graph.DAG { return graph.QR(n) }, otherPlatforms},
			rung{"split", n, func() *graph.DAG { return graph.CholeskySplit(n, n/2, 2, platform.TileNB) },
				[]string{"mirage-extended/scaled"}})
	}
	var units []unit
	for _, g := range rungs {
		units = append(units, ladderUnit(rng, g, pfs))
	}
	warm := func() error {
		r := newRunner(nil, nil)
		ladderUnit(rng, rung{"cholesky", 24, func() *graph.DAG { return graph.Cholesky(24) }, ladderPlatforms}, pfs).run(r)
		return warmErr(r)
	}
	return shuffled(rng, units), warm, nil
}

func ladderUnit(rng *rand.Rand, g rung, pfs map[string]*platform.Platform) unit {
	plats := shuffled(rng, g.plats)
	var jobs []string
	for _, pn := range plats {
		for _, b := range []string{"cp", "area-int", "mixed-int"} {
			jobs = append(jobs, fmt.Sprintf("ladder/%s/n=%d/%s/%s", g.family, g.n, pn, b))
		}
	}
	return unit{jobs: jobs, run: func(r *runner) {
		end := r.unitSpan("ladder")
		d := r.build(g.family, g.build)
		for i, pn := range plats {
			key := jobs[3*i : 3*i+3]
			r.boundJob(key[0], "bounds.critical_path", g.family, d, pfs[pn], nil)
			// The integral LP pair is the part that reads the kind census:
			// cold on the DAG's first platform, warm after.
			id := r.tr.begin("bounds.query")
			area := r.boundJob(key[1], "bounds.area_int", g.family, d, pfs[pn], nil)
			r.boundJob(key[2], "bounds.mixed_int", g.family, d, pfs[pn], func(mixed float64) error {
				if !leq(area, mixed) {
					return fmt.Errorf("integral area bound %g exceeds integral mixed bound %g", area, mixed)
				}
				return nil
			})
			r.tr.end(id)
			if s := r.tr.at(id); s != nil {
				s.Flag = i == 0
			}
		}
		end()
		var ps []*platform.Platform
		for _, pn := range plats {
			ps = append(ps, pfs[pn])
		}
		r.probe(g.family, d, ps...)
		r.warmQuery(g.family, d, ps[0])
	}}
}
