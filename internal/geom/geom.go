package geom

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Metric is a finite metric space over nodes 0..N()-1.
type Metric interface {
	// N returns the number of nodes.
	N() int
	// Dist returns the distance between nodes i and j.
	Dist(i, j int) float64
}

// Euclidean is a set of points in d-dimensional Euclidean space.
type Euclidean struct {
	flat []float64   // flat[i·dim+k] is axis k of point i
	pts  [][]float64 // pts[i] is point i, a view of flat
	dim  int
}

var _ Metric = (*Euclidean)(nil)

// NewEuclidean builds a Euclidean metric from the given points. All points
// must have the same, non-zero dimension.
func NewEuclidean(pts [][]float64) (*Euclidean, error) {
	if len(pts) == 0 {
		return nil, errors.New("geom: empty point set")
	}
	dim := len(pts[0])
	if dim == 0 {
		return nil, errors.New("geom: zero-dimensional points")
	}
	flat := make([]float64, 0, len(pts)*dim)
	views := make([][]float64, len(pts))
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(p), dim)
		}
		flat = append(flat, p...)
		views[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Euclidean{flat: flat, pts: views, dim: dim}, nil
}

// N returns the number of points.
func (e *Euclidean) N() int { return len(e.pts) }

// Dim returns the dimension of the space.
func (e *Euclidean) Dim() int { return e.dim }

// Point returns a copy of the coordinates of node i.
func (e *Euclidean) Point(i int) []float64 {
	return append([]float64(nil), e.pts[i]...)
}

// Dist returns the Euclidean distance between points i and j.
func (e *Euclidean) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return euclid(e.pts[i], e.pts[j])
}

// euclid is the Euclidean distance formula, the one copy shared by
// Euclidean.Dist and the flattened evaluator of Sub views, so both run
// the same operations in the same order.
func euclid(pi, pj []float64) float64 {
	var s float64
	for k := range pi {
		d := pi[k] - pj[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// Line is a one-dimensional Euclidean metric given by node coordinates.
type Line struct {
	xs []float64
}

var _ Metric = (*Line)(nil)

// NewLine builds a line metric from the given coordinates.
func NewLine(xs []float64) (*Line, error) {
	if len(xs) == 0 {
		return nil, errors.New("geom: empty line")
	}
	return &Line{xs: append([]float64(nil), xs...)}, nil
}

// N returns the number of nodes.
func (l *Line) N() int { return len(l.xs) }

// Coord returns the coordinate of node i.
func (l *Line) Coord(i int) float64 { return l.xs[i] }

// Dist returns |x_i - x_j|.
func (l *Line) Dist(i, j int) float64 { return math.Abs(l.xs[i] - l.xs[j]) }

// Matrix is an explicit distance-matrix metric.
type Matrix struct {
	d [][]float64
}

var _ Metric = (*Matrix)(nil)

// NewMatrix builds a metric from an explicit symmetric matrix with zero
// diagonal and non-negative entries. It does not verify the triangle
// inequality; use ValidateTriangle for that.
func NewMatrix(d [][]float64) (*Matrix, error) {
	n := len(d)
	if n == 0 {
		return nil, errors.New("geom: empty matrix")
	}
	cp := make([][]float64, n)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("geom: row %d has length %d, want %d", i, len(d[i]), n)
		}
		cp[i] = append([]float64(nil), d[i]...)
	}
	for i := 0; i < n; i++ {
		if cp[i][i] != 0 {
			return nil, fmt.Errorf("geom: non-zero diagonal at %d", i)
		}
		for j := 0; j < n; j++ {
			if cp[i][j] < 0 {
				return nil, fmt.Errorf("geom: negative distance (%d,%d)", i, j)
			}
			if math.Abs(cp[i][j]-cp[j][i]) > 1e-12*(1+math.Abs(cp[i][j])) {
				return nil, fmt.Errorf("geom: asymmetric distance (%d,%d)", i, j)
			}
		}
	}
	return &Matrix{d: cp}, nil
}

// N returns the number of nodes.
func (m *Matrix) N() int { return len(m.d) }

// Dist returns the stored distance between i and j.
func (m *Matrix) Dist(i, j int) float64 { return m.d[i][j] }

// Star is a star metric: n leaf nodes around an implicit center. The
// distance between two distinct leaves is the sum of their radii (their
// distances to the center). The center itself is not a node of the metric;
// use Radius to access leaf-to-center distances.
type Star struct {
	radii []float64
}

var _ Metric = (*Star)(nil)

// NewStar builds a star metric from leaf radii. All radii must be positive.
func NewStar(radii []float64) (*Star, error) {
	if len(radii) == 0 {
		return nil, errors.New("geom: empty star")
	}
	for i, r := range radii {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("geom: invalid radius %g at leaf %d", r, i)
		}
	}
	return &Star{radii: append([]float64(nil), radii...)}, nil
}

// N returns the number of leaves.
func (s *Star) N() int { return len(s.radii) }

// Radius returns the distance from leaf i to the star center.
func (s *Star) Radius(i int) float64 { return s.radii[i] }

// Dist returns radii[i] + radii[j] for distinct leaves, 0 otherwise.
func (s *Star) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return s.radii[i] + s.radii[j]
}

// Tree is an edge-weighted tree metric. Distances are shortest-path
// distances in the tree, answered by walking to the lowest common ancestor
// of a rooted representation built by Finalize. Queries cost O(height),
// which is logarithmic for the balanced hierarchically separated trees this
// repository produces, and memory stays linear even for trees with many
// Steiner nodes.
type Tree struct {
	n     int
	adj   [][]treeEdge
	built bool
	// Rooted representation (root = node 0).
	parent []int
	pw     []float64 // weight of the edge to the parent
	wdepth []float64 // weighted depth
	idepth []int     // integer depth
}

type treeEdge struct {
	to int
	w  float64
}

var _ Metric = (*Tree)(nil)

// NewTree creates a tree metric with n isolated nodes. Add n-1 edges with
// AddEdge and then call Finalize before using Dist.
func NewTree(n int) (*Tree, error) {
	if n <= 0 {
		return nil, errors.New("geom: tree must have at least one node")
	}
	return &Tree{n: n, adj: make([][]treeEdge, n)}, nil
}

// N returns the number of nodes.
func (t *Tree) N() int { return t.n }

// AddEdge adds an undirected edge of weight w between u and v.
func (t *Tree) AddEdge(u, v int, w float64) error {
	if t.built {
		return errors.New("geom: tree already finalized")
	}
	if u < 0 || u >= t.n || v < 0 || v >= t.n || u == v {
		return fmt.Errorf("geom: invalid edge (%d,%d)", u, v)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("geom: invalid edge weight %g", w)
	}
	t.adj[u] = append(t.adj[u], treeEdge{to: v, w: w})
	t.adj[v] = append(t.adj[v], treeEdge{to: u, w: w})
	return nil
}

// Finalize checks that the edges form a spanning tree and roots it at
// node 0 for distance queries.
func (t *Tree) Finalize() error {
	if t.built {
		return nil
	}
	var edges int
	for _, a := range t.adj {
		edges += len(a)
	}
	if edges != 2*(t.n-1) {
		return fmt.Errorf("geom: tree has %d edges, want %d", edges/2, t.n-1)
	}
	t.parent = make([]int, t.n)
	t.pw = make([]float64, t.n)
	t.wdepth = make([]float64, t.n)
	t.idepth = make([]int, t.n)
	seen := make([]bool, t.n)
	seen[0] = true
	t.parent[0] = -1
	stack := []int{0}
	visited := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.adj[u] {
			if seen[e.to] {
				continue
			}
			seen[e.to] = true
			visited++
			t.parent[e.to] = u
			t.pw[e.to] = e.w
			t.wdepth[e.to] = t.wdepth[u] + e.w
			t.idepth[e.to] = t.idepth[u] + 1
			stack = append(stack, e.to)
		}
	}
	if visited != t.n {
		return errors.New("geom: edges do not form a connected tree")
	}
	t.built = true
	return nil
}

// Dist returns the tree shortest-path distance. Finalize must have been
// called; otherwise Dist panics.
func (t *Tree) Dist(i, j int) float64 {
	if !t.built {
		panic("geom: Tree.Dist before Finalize")
	}
	if i == j {
		return 0
	}
	di, dj := t.wdepth[i], t.wdepth[j]
	for t.idepth[i] > t.idepth[j] {
		i = t.parent[i]
	}
	for t.idepth[j] > t.idepth[i] {
		j = t.parent[j]
	}
	for i != j {
		i = t.parent[i]
		j = t.parent[j]
	}
	return di + dj - 2*t.wdepth[i]
}

// Neighbors returns the neighbors of u and the corresponding edge weights.
func (t *Tree) Neighbors(u int) (nodes []int, weights []float64) {
	for _, e := range t.adj[u] {
		nodes = append(nodes, e.to)
		weights = append(weights, e.w)
	}
	return nodes, weights
}

// Degree returns the number of neighbors of u. With Neighbor it offers
// the allocation-free view of the adjacency that the centroid
// decomposition walks millions of times per solve.
func (t *Tree) Degree(u int) int { return len(t.adj[u]) }

// Neighbor returns the k-th neighbor of u and the edge weight, without
// allocating. k must be in [0, Degree(u)).
func (t *Tree) Neighbor(u, k int) (int, float64) {
	e := t.adj[u][k]
	return e.to, e.w
}

// Sub is a metric restricted to a subset of another metric's nodes. Node i
// of the sub-metric corresponds to nodes[i] of the base metric.
type Sub struct {
	base  Metric
	nodes []int

	// once memoizes the view's resolution for Coords and DistFunc: the
	// gathered coordinates of a base with coordinates (flat, dim, line)
	// and the direct evaluator distFn. The pipeline resolves the same Sub
	// once per tree build plus once per embedding, and the gather is
	// O(n·dim) each time. The memo is concurrency-safe because
	// concurrent tree builds share one Sub.
	once   sync.Once
	flat   []float64
	dim    int
	line   bool
	distFn func(i, j int) float64
}

var _ Metric = (*Sub)(nil)

// NewSub builds a restriction of base to the given node indices. The
// slice is copied; see NewSubOwned for the zero-copy variant.
func NewSub(base Metric, nodes []int) (*Sub, error) {
	s, err := NewSubOwned(base, nodes)
	if err != nil {
		return nil, err
	}
	s.nodes = append([]int(nil), nodes...)
	return s, nil
}

// NewSubOwned is NewSub taking ownership of the nodes slice instead of
// copying it. The caller must not mutate nodes while the Sub is live;
// the pipeline's arena uses this to restrict a metric once per color
// class without re-copying the active-node list it already owns.
func NewSubOwned(base Metric, nodes []int) (*Sub, error) {
	if len(nodes) == 0 {
		return nil, errors.New("geom: empty sub-metric")
	}
	for _, v := range nodes {
		if v < 0 || v >= base.N() {
			return nil, fmt.Errorf("geom: node %d out of range [0,%d)", v, base.N())
		}
	}
	return &Sub{base: base, nodes: nodes}, nil
}

// N returns the number of nodes in the restriction.
func (s *Sub) N() int { return len(s.nodes) }

// Base returns the index in the base metric of sub-node i.
func (s *Sub) Base(i int) int { return s.nodes[i] }

// Dist returns the base-metric distance between the mapped nodes.
func (s *Sub) Dist(i, j int) float64 { return s.base.Dist(s.nodes[i], s.nodes[j]) }

// resolve fills the memo once. A base with coordinates has the selected
// points gathered into one contiguous array, and the evaluator runs the
// base's exact distance formula (same operations on the same float
// values) on it without the per-query node translation or pointer
// chases; any other base is evaluated through its own DistFunc.
func (s *Sub) resolve() {
	s.once.Do(func() {
		flat, dim, line, ok := coords(s.base)
		if !ok {
			inner := DistFunc(s.base)
			nodes := s.nodes
			s.distFn = func(i, j int) float64 { return inner(nodes[i], nodes[j]) }
			return
		}
		s.flat = make([]float64, len(s.nodes)*dim)
		for i, nd := range s.nodes {
			copy(s.flat[i*dim:(i+1)*dim], flat[nd*dim:(nd+1)*dim])
		}
		s.dim, s.line = dim, line
		if line {
			xs := s.flat
			s.distFn = func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }
			return
		}
		pts := s.flat
		s.distFn = func(i, j int) float64 {
			if i == j {
				return 0
			}
			return euclid(pts[i*dim:(i+1)*dim], pts[j*dim:(j+1)*dim])
		}
	})
}

// maxCoordDim is the largest Euclidean dimension Coords reports: the
// grids built on coordinates visit the 3^dim cells around a cell, which
// stops paying above three axes.
const maxCoordDim = 3

// Coords returns the coordinates of a metric with coordinates: a
// Euclidean space of at most three dimensions, a line (one axis), or a
// Sub view of either. flat[i·dim+k] is axis k of node i; the slice is
// shared with the metric and must not be modified. ok is false for every
// other metric (explicit matrices, trees, stars, Euclidean spaces above
// three dimensions): those carry no coordinates a grid can use.
//
// It is the one definition of "metric with coordinates": DistFunc's
// flattened Sub evaluator, the Cells index behind MinDist, MaxDist and
// the HST scans, and the sparse affectance engine's request grid all
// take their coordinates from here.
func Coords(m Metric) (flat []float64, dim int, ok bool) {
	flat, dim, _, ok = coords(m)
	return flat, dim, ok
}

// coords is Coords also reporting whether the metric measures |x−y| on a
// line rather than the Euclidean root of the summed squares: the two
// formulas can round differently, so DistFunc keeps them apart.
func coords(m Metric) (flat []float64, dim int, line, ok bool) {
	switch t := m.(type) {
	case *Euclidean:
		if t.dim <= maxCoordDim {
			return t.flat, t.dim, false, true
		}
	case *Line:
		return t.xs, 1, true, true
	case *Sub:
		t.resolve()
		if t.flat != nil {
			return t.flat, t.dim, t.line, true
		}
	}
	return nil, 0, false, false
}

// DistFunc returns a direct evaluator of m.Dist with the interface
// indirection peeled off: concrete metrics resolve to a bound method
// (a static call instead of a dynamic dispatch per pair), and a Sub view
// resolves its base once instead of re-dispatching on every query. The
// returned function computes exactly m.Dist — same operations in the
// same order, bitwise-equal results — it is only cheaper to call inside
// the O(n²) loops of the HST builds and stretch scans.
func DistFunc(m Metric) func(i, j int) float64 {
	switch t := m.(type) {
	case *Sub:
		t.resolve()
		return t.distFn
	case *Euclidean:
		return t.Dist
	case *Line:
		return t.Dist
	case *Matrix:
		return t.Dist
	case *Star:
		return t.Dist
	case *Tree:
		return t.Dist
	default:
		return m.Dist
	}
}

// MinDist returns the minimum distance over all distinct node pairs. On
// a metric with coordinates it tests only the pairs of adjacent cells of
// a grid fine enough to hold the closest pair (see Cells); the result is
// bitwise the all-pairs scan's, which every other metric runs.
func MinDist(m Metric) float64 {
	dist := DistFunc(m)
	if c := NewCells(m); c != nil {
		if d, ok := c.minDist(dist); ok {
			return d
		}
	}
	n := m.N()
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d < best {
				best = d
			}
		}
	}
	return best
}

// MaxDist returns the maximum distance (diameter) over all node pairs. On
// a metric with coordinates it skips the cell pairs of a coarse grid
// whose conservative distance bound falls below the maximum found; the
// result is bitwise the all-pairs scan's, which every other metric runs.
func MaxDist(m Metric) float64 {
	dist := DistFunc(m)
	if c := NewCells(m); c != nil {
		if d, ok := c.maxDist(dist); ok {
			return d
		}
	}
	n := m.N()
	var best float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d > best {
				best = d
			}
		}
	}
	return best
}

// AspectRatio returns MaxDist / MinDist, the aspect ratio Δ of the metric.
// It returns +Inf if two distinct nodes coincide.
func AspectRatio(m Metric) float64 {
	lo := MinDist(m)
	if lo == 0 {
		return math.Inf(1)
	}
	return MaxDist(m) / lo
}

// ValidateTriangle checks the triangle inequality on all node triples with
// a relative tolerance. It is O(n^3); intended for tests.
func ValidateTriangle(m Metric) error {
	n := m.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dij := m.Dist(i, j)
			for k := 0; k < n; k++ {
				if via := m.Dist(i, k) + m.Dist(k, j); dij > via*(1+1e-9) {
					return fmt.Errorf("geom: triangle inequality violated: d(%d,%d)=%g > d(%d,%d)+d(%d,%d)=%g",
						i, j, dij, i, k, k, j, via)
				}
			}
		}
	}
	return nil
}
