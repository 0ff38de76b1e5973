package sparse

import (
	"math"

	"repro/internal/geom"
)

// maxDim is the largest number of axes the grid buckets: geom.Coords
// reports at most three, and every other metric has no grid (Supported
// gates it out and For falls back to the dense engine).
const maxDim = 3

// cellCoord is the integer coordinate of a grid cell; unused trailing
// axes stay zero so the value is directly comparable and hashable.
type cellCoord [maxDim]int32

// grid is a uniform cell decomposition of the bounding box of the request
// endpoints. Only occupied cells are materialized, keyed by their integer
// coordinate, so memory is O(#distinct endpoint cells) regardless of the
// bounding-box aspect ratio.
type grid struct {
	dim        int
	h          float64 // cell edge length
	min        [maxDim]float64
	cmin, cmax [maxDim]int32       // bounding box of the occupied cell coordinates
	coords     []cellCoord         // cell id -> integer coordinate
	ids        map[cellCoord]int32 // integer coordinate -> cell id
	reqs       [][]int32           // cell id -> requests with an endpoint in the cell (sorted, deduped)
}

// pointFn resolves a node index to coordinates (unused axes zero).
type pointFn func(node int) [maxDim]float64

// points returns a coordinate accessor for the metric, or ok=false when
// the metric is not a metric with coordinates (see geom.Coords).
func points(space geom.Metric) (fn pointFn, dim int, ok bool) {
	flat, dim, ok := geom.Coords(space)
	if !ok || dim > maxDim {
		return nil, 0, false
	}
	return func(node int) [maxDim]float64 {
		var p [maxDim]float64
		copy(p[:], flat[node*dim:(node+1)*dim])
		return p
	}, dim, true
}

// Supported reports whether the metric space carries the coordinates the
// grid decomposition needs — a metric with coordinates in geom.Coords'
// sense: a Euclidean space of at most 3 dimensions, a line metric, or a
// Sub view of either (instances keep their base space, so in practice
// the first two). For every other metric the dense engine is the only
// affectance cache.
func Supported(space geom.Metric) bool {
	_, _, ok := points(space)
	return ok
}

// newGrid buckets the given nodes of the space. nodes lists the node
// indices that appear as request endpoints (duplicates allowed); occ is
// the target number of endpoint sites per cell, which fixes the cell edge
// from the observed density. nodeCell receives the cell id of every
// listed node (indexed by node id; untouched entries stay -1).
func newGrid(fn pointFn, dim int, nodes []int, occ float64, nodeCell []int32) *grid {
	g := &grid{dim: dim, ids: make(map[cellCoord]int32)}

	var max [maxDim]float64
	for k := 0; k < dim; k++ {
		g.min[k] = math.Inf(1)
		max[k] = math.Inf(-1)
	}
	for _, w := range nodes {
		p := fn(w)
		for k := 0; k < dim; k++ {
			if p[k] < g.min[k] {
				g.min[k] = p[k]
			}
			if p[k] > max[k] {
				max[k] = p[k]
			}
		}
	}

	// Cell edge from the density of the occupied volume: axes with zero
	// extent (all points coplanar/collinear) contribute no volume and are
	// excluded from the effective dimension, so a 2-d instance laid out
	// on a line still gets sensibly sized cells.
	vol, effDim := 1.0, 0
	for k := 0; k < dim; k++ {
		if ext := max[k] - g.min[k]; ext > 0 {
			vol *= ext
			effDim++
		}
	}
	if effDim == 0 {
		// Degenerate: every endpoint coincides. One cell holds everything
		// (problem.New rejects zero-length requests, so this cannot occur
		// for real instances, but the grid must not divide by zero).
		g.h = 1
	} else {
		g.h = math.Pow(vol*occ/float64(len(nodes)), 1/float64(effDim))
		if !(g.h > 0) {
			g.h = 1
		}
	}

	for _, w := range nodes {
		if nodeCell[w] >= 0 {
			continue
		}
		p := fn(w)
		var cc cellCoord
		for k := 0; k < dim; k++ {
			cc[k] = int32(math.Floor((p[k] - g.min[k]) / g.h))
		}
		id, seen := g.ids[cc]
		if !seen {
			id = int32(len(g.coords))
			if id == 0 {
				g.cmin, g.cmax = cc, cc
			} else {
				for k := 0; k < dim; k++ {
					if cc[k] < g.cmin[k] {
						g.cmin[k] = cc[k]
					}
					if cc[k] > g.cmax[k] {
						g.cmax[k] = cc[k]
					}
				}
			}
			g.ids[cc] = id
			g.coords = append(g.coords, cc)
			g.reqs = append(g.reqs, nil)
		}
		nodeCell[w] = id
	}
	return g
}

// cheb returns the Chebyshev distance between two cells in cell units.
func (g *grid) cheb(a, b int32) int32 {
	var m int32
	ca, cb := &g.coords[a], &g.coords[b]
	for k := 0; k < g.dim; k++ {
		d := ca[k] - cb[k]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// boxDist returns the minimum Euclidean distance between the boxes of two
// cells: per axis, cells that are not adjacent leave a gap of
// (|Δ|-1)·h. It is a lower bound on the distance between any point of
// cell a and any point of cell b, and is strictly positive whenever the
// cells are beyond each other's adjacent ring.
func (g *grid) boxDist(a, b int32) float64 {
	var s float64
	ca, cb := &g.coords[a], &g.coords[b]
	for k := 0; k < g.dim; k++ {
		d := ca[k] - cb[k]
		if d < 0 {
			d = -d
		}
		if d > 1 {
			gap := float64(d-1) * g.h
			s += gap * gap
		}
	}
	return math.Sqrt(s)
}

// neighborCells calls visit with the id of every occupied cell within
// Chebyshev distance r of cell c (including c itself). The scan ranges
// are clamped to the occupied bounding box, so a saturated radius (tiny
// ε) enumerates the whole grid rather than overflowing.
func (g *grid) neighborCells(c int32, r int32, visit func(id int32)) {
	base := g.coords[c]
	var lo, hi [maxDim]int32
	for k := 0; k < g.dim; k++ {
		l, h := int64(base[k])-int64(r), int64(base[k])+int64(r)
		if l < int64(g.cmin[k]) {
			l = int64(g.cmin[k])
		}
		if h > int64(g.cmax[k]) {
			h = int64(g.cmax[k])
		}
		lo[k], hi[k] = int32(l), int32(h)
	}
	var cc cellCoord
	var rec func(k int)
	rec = func(k int) {
		if k == g.dim {
			if id, ok := g.ids[cc]; ok {
				visit(id)
			}
			return
		}
		for v := lo[k]; v <= hi[k]; v++ {
			cc[k] = v
			rec(k + 1)
		}
	}
	rec(0)
}
