package hst

import (
	"math"

	"repro/internal/geom"
)

// The level assignment and the stretch scans of a metric with
// coordinates run on a geom.Cells index. The index only skips pairs that
// provably fail — farther than the level radius for the assignment,
// unable to exceed the stretch bound for the scans — and every pair it
// keeps is tested with the same distance function and arithmetic as the
// all-pairs scans, so levels, cores and every result built on them are
// bitwise the scans'. Metrics without coordinates, and grids that would
// overflow a cell key or not pay, keep the scans.

const (
	// probes is how many ranks a node's resumed scan tries at a level
	// before the node joins the center-first search. At the levels where
	// the scan costs O(1) per node, no node gets that far and no index is
	// built.
	probes = 4
	// minOpen is the fewest open nodes (nodes past their probes) the
	// center-first search takes on; fewer finish their resumed scans.
	minOpen = 32
)

// claimer assigns the FRT centers level by level, top-down.
type claimer struct {
	dist func(i, j int) float64
	perm []int
	// pos[u] is the rank at which u's center was found at the previous
	// level. Radii halve as the levels descend, so no lower rank can
	// qualify again, and each level's search resumes there.
	pos []int
	// center[u] is u's center at the current level; -1 marks an open node
	// during the center-first search.
	center []int
	cells  *geom.Cells // nil for a metric without coordinates
	open   []int32
}

// level sets center[u], for every node u, to the lowest-rank node within
// radius r of u — the node the resumed permutation scan finds — and
// pos[u] to its rank.
func (cl *claimer) level(r float64) {
	cl.probe(r)
	cl.claim(r)
}

// probe runs every node's resumed scan for its next few ranks and
// collects the nodes it leaves open, pos at their last rank tried.
//
//oblint:hotpath
func (cl *claimer) probe(r float64) {
	n := len(cl.perm)
	cl.open = cl.open[:0]
	for u := range cl.center {
		k, lim := cl.pos[u], min(cl.pos[u]+probes, n)
		for k < lim && !(cl.dist(u, cl.perm[k]) <= r) {
			k++
		}
		if k < lim {
			cl.center[u], cl.pos[u] = cl.perm[k], k
			continue
		}
		// u is within r of itself, so its own rank lies beyond lim.
		cl.center[u], cl.pos[u] = -1, k-1
		cl.open = append(cl.open, int32(u))
	}
}

// claim finishes the open nodes: center-first over the index when the
// grid pays, their resumed scans otherwise.
//
//oblint:hotpath
func (cl *claimer) claim(r float64) {
	if len(cl.open) >= minOpen && cl.cells != nil && cl.cells.Bucket(cl.open, r) {
		cl.centerFirst(r)
		return
	}
	for _, u := range cl.open {
		k := cl.pos[u] + 1
		for !(cl.dist(int(u), cl.perm[k]) <= r) {
			k++
		}
		cl.center[u], cl.pos[u] = cl.perm[k], k
	}
}

// centerFirst claims the open nodes bucketed in cl.cells: centers are
// taken in permutation order, and each claims the open nodes within r
// among those its adjacent cells hold — every other node is farther than
// r. An open node u thus gets the lowest rank above pos[u] within r, as
// its resumed scan would; at its own rank at the latest.
//
//oblint:hotpath
func (cl *claimer) centerFirst(r float64) {
	first := len(cl.perm)
	for _, u := range cl.open {
		first = min(first, cl.pos[u]+1)
	}
	left := len(cl.open)
	var rows [9][2]int32
	for k := first; left > 0; k++ {
		c := cl.perm[k]
		nr := cl.cells.Near(c, &rows)
		for _, rg := range rows[:nr] {
			for s := int(rg[0]); s < int(rg[1]); s++ {
				u := cl.cells.Node(s)
				if cl.center[u] >= 0 || k <= cl.pos[u] {
					continue
				}
				if cl.dist(u, c) <= r {
					cl.center[u], cl.pos[u] = c, k
					left--
				}
			}
		}
	}
}

// indexStretch gives the stretch scans at bound a cell index, when the
// metric has coordinates and the grid pays. No pair separates above
// level top, so no tree distance, computed as the scans compute it,
// exceeds x_top = 2b(2^top − 1); the product and the division are both
// monotone, so a pair at computed distance d ≥ ρ, for a ρ with
// x_top/ρ ≤ bound, has T/d ≤ x_top/ρ ≤ bound and cannot violate it. The
// index, bucketed with reach ρ, keeps every pair closer than ρ.
func (e *Embedding) indexStretch(bound float64) {
	cells := geom.NewCells(e.base)
	if cells == nil {
		return
	}
	xTop := 2 * e.b * (e.pow2[e.top] - 1)
	rho := xTop / bound
	for i := 0; i < 4 && xTop/rho > bound; i++ {
		rho = math.Nextafter(rho, math.Inf(1))
	}
	if xTop/rho <= bound && cells.Bucket(nil, rho) {
		e.cells, e.cellsBound = cells, bound
	}
}

// stretchCells returns the stretch scans' cell index for bound, or nil
// when they must test every pair.
func (e *Embedding) stretchCells(bound float64) *geom.Cells {
	if bound != e.cellsBound {
		return nil
	}
	return e.cells
}
