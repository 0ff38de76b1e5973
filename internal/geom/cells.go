package geom

import (
	"cmp"
	"math"
	"slices"
)

// Cells is a uniform grid index over the nodes of a metric with
// coordinates (see Coords), built for exact pruning. Bucket(nodes, reach)
// sorts the given nodes into cubic cells whose edge h is a hair above
// reach; afterwards every bucketed node outside the cells adjacent to a
// node p's cell (two or more cells apart along some axis) is provably
// farther than reach from p under the metric's own floating-point
// distance. A scan for pairs within reach therefore tests only the nodes
// Near returns, and each test it keeps still calls the metric's distance
// function, so the scan's outcome is bitwise the all-pairs scan's.
//
// Why the skipped pairs fail. Write q = (x − lo)/h for the computed cell
// coordinate along an axis (one rounding in the subtraction, one in the
// division, so q is within a relative 2⁻⁵² of its exact value) and u for
// 2⁻⁵³. Bucket keeps |q| ≤ 2²⁰+1 for every node that lands in a row, so
// two nodes whose floor(q) differ by two or more are exactly more than
// h·(1 − 2⁻³⁰) apart along that axis; so is a node whose q falls outside
// [−1, span+1) from every bucketed node. The computed distance is at
// least the rounded axis difference less a relative 2u: the running sum
// of squares only grows, and sqrt(fl(d²)) is within u of |d| while d² is
// normal, which the edge and extent bounds (2⁻⁵⁰⁰ ≤ h, extent ≤ 2⁵⁰⁰)
// guarantee. With h = reach·(1 + 2⁻²⁰) the skipped pair is computed
// farther than reach.
type Cells struct {
	flat []float64
	dim  int
	n    int

	h      float64              // cell edge: at least reach·(1 + cellSlack)
	lo     [maxCoordDim]float64 // grid origin: the bucketed nodes' minimum per axis
	span   [maxCoordDim]int     // cells per axis (1 on unused axes)
	stride [maxCoordDim]int     // key = Σ cell_k·stride_k (0 on unused axes)
	// start[key] is the first slot of cell key, start[key+1] the slot
	// after its last: a counting sort of the bucketed nodes into nodes.
	start []int32
	nodes []int32 // bucketed nodes in cell-key order
	keys  []int32 // scratch: the cell key of each listed node
	all   []int32 // 0..n-1, the node list of Bucket(nil, …)
}

const (
	// cellSlack widens the cell edge over the reach. The rounding of the
	// cell coordinates and of the distance (relative errors below 2⁻³⁰,
	// see Cells) cannot close that gap.
	cellSlack = 0x1p-20
	// maxSpan caps the cells per axis; it bounds the rounding error of
	// the cell coordinates.
	maxSpan = 1 << 20
	// minEdge and maxExtent keep every squared coordinate difference the
	// pruning relies on a normal float64.
	minEdge   = 0x1p-500
	maxExtent = 0x1p500
	// cellsPerNode caps the grid's cells per bucketed node: past it the
	// edge grows (a wider cell only keeps more pairs), so the cell table
	// stays linear in the nodes however small the reach.
	cellsPerNode = 2
	// maxNear is the largest fraction of the node pairs that may lie in
	// adjacent cells before a scan over the grid stops paying.
	maxNear = 1.0 / 4
	// minCellNodes is the size below which MinDist and MaxDist keep the
	// all-pairs scan: the grid's set-up costs about as much there.
	minCellNodes = 64
)

// NewCells returns an empty index over m's coordinates, or nil when m is
// not a metric with coordinates.
func NewCells(m Metric) *Cells {
	flat, dim, ok := Coords(m)
	if !ok {
		return nil
	}
	return &Cells{flat: flat, dim: dim, n: len(flat) / dim}
}

// Bucket indexes the given distinct nodes (every node when nodes is nil)
// for pairs within reach, reusing the index's buffers. It returns false, and
// the caller scans instead, when the grid cannot be exact (a non-finite
// coordinate, a cell edge or extent outside [2⁻⁵⁰⁰, 2⁵⁰⁰], more than 2²⁰
// cells along an axis) or cannot pay: no axis spans three cells, or more
// than a quarter of the node pairs lie in adjacent cells, as when a few
// far-out nodes stretch the grid over a tight core (extreme aspect
// ratios).
func (c *Cells) Bucket(nodes []int32, reach float64) bool {
	return c.bucket(nodes, reach, maxNear)
}

// bucket is Bucket with the bound on the adjacent fraction of the pairs
// as a parameter; maxDist's coarse grid holds about √n nodes per cell by
// design and passes 1.
func (c *Cells) bucket(nodes []int32, reach, near float64) bool {
	if nodes == nil {
		nodes = c.allNodes()
	}
	lo, hi, ok := c.bounds(nodes)
	if !ok {
		return false
	}
	m := len(nodes)
	var ext [maxCoordDim]float64
	vol, eff := 1.0, 0
	for k := 0; k < c.dim; k++ {
		if ext[k] = hi[k] - lo[k]; ext[k] > 0 {
			vol *= ext[k]
			eff++
		}
	}
	h := reach * (1 + cellSlack)
	if eff > 0 {
		// The edge at which the occupied axes hold cellsPerNode·m cells.
		h = max(h, math.Pow(vol/float64(cellsPerNode*m), 1/float64(eff)))
	}
	if !(h >= minEdge && h <= maxExtent) {
		return false
	}
	for {
		cells, pays := 1, false
		for k := 0; k < maxCoordDim; k++ {
			if k >= c.dim {
				c.span[k], c.stride[k] = 1, 0
				continue
			}
			if !(ext[k] <= maxExtent && ext[k]/h < maxSpan) {
				return false
			}
			// The node at hi lands in cell floor(ext/h), the same
			// rounding as every other node's cell, so the spans hold
			// every key.
			c.span[k], c.stride[k] = int(ext[k]/h)+1, cells
			cells *= c.span[k]
			pays = pays || c.span[k] >= 3
		}
		if !pays {
			return false
		}
		// The +1 of each span can push the count past the target; a
		// wider edge brings it back.
		if cells <= 2*cellsPerNode*m+16 {
			c.resize(cells)
			break
		}
		h *= 1.25
	}
	c.h, c.lo = h, lo
	c.keys = c.keys[:0]
	for _, u := range nodes {
		key := 0
		for k := 0; k < c.dim; k++ {
			key += int((c.flat[int(u)*c.dim+k]-lo[k])/h) * c.stride[k]
		}
		c.keys = append(c.keys, int32(key))
		c.start[key+1]++
	}
	for key := 1; key < len(c.start); key++ {
		c.start[key] += c.start[key-1]
	}
	c.nodes = c.nodes[:m]
	for i, key := range c.keys {
		c.nodes[c.start[key]] = nodes[i]
		c.start[key]++
	}
	// Placing advanced each start to its cell's end; shift them back.
	copy(c.start[1:], c.start[:len(c.start)-1])
	c.start[0] = 0
	return near >= 1 || c.nearPairs() <= near*float64(m)*float64(m-1)/2
}

// nearPairs counts the unordered pairs of bucketed nodes in adjacent
// cells, the pairs a scan over the grid tests.
func (c *Cells) nearPairs() float64 {
	var rows [9][2]int32
	var twice float64
	for key := 0; key+1 < len(c.start); key++ {
		cnt := c.start[key+1] - c.start[key]
		if cnt == 0 {
			continue
		}
		var adj int32
		for _, rg := range rows[:c.rows(c.cellOf(key), &rows)] {
			adj += rg[1] - rg[0]
		}
		twice += float64(cnt) * float64(adj-1)
	}
	return twice / 2
}

// cellOf returns the cell coordinates of a key.
func (c *Cells) cellOf(key int) [maxCoordDim]int {
	return [maxCoordDim]int{key % c.span[0], key / c.span[0] % c.span[1], key / (c.span[0] * c.span[1])}
}

// resize zeroes the cell table for the given number of cells and sizes
// the node buffer, reusing the previous bucketing's storage.
func (c *Cells) resize(cells int) {
	if cap(c.start) < cells+1 {
		c.start = make([]int32, cells+1)
	} else {
		c.start = c.start[:cells+1]
		clear(c.start)
	}
	if cap(c.nodes) < c.n {
		c.nodes = make([]int32, c.n)
		c.keys = make([]int32, 0, c.n)
	}
}

// allNodes returns the list 0..n-1, built on first use.
func (c *Cells) allNodes() []int32 {
	if c.all == nil {
		c.all = make([]int32, c.n)
		for u := range c.all {
			c.all[u] = int32(u)
		}
	}
	return c.all
}

// bounds returns the per-axis minimum and maximum of the given nodes'
// coordinates; ok is false when there are none or a coordinate is not
// finite.
func (c *Cells) bounds(nodes []int32) (lo, hi [maxCoordDim]float64, ok bool) {
	for k := 0; k < c.dim; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, u := range nodes {
		for k, x := range c.flat[int(u)*c.dim : (int(u)+1)*c.dim] {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return lo, hi, false
			}
			lo[k] = min(lo[k], x)
			hi[k] = max(hi[k], x)
		}
	}
	return lo, hi, len(nodes) > 0
}

// Node returns the bucketed node at slot i; slots run in cell order.
func (c *Cells) Node(i int) int { return int(c.nodes[i]) }

// Near writes to rows the slot ranges [lo, hi) of the bucketed nodes in
// the cells adjacent to node p's cell, p's own included, and returns how
// many it wrote: one range per row of up to three consecutive cells
// along axis 0, so at most 3^(dim−1). p is any node of the metric, not
// necessarily a bucketed one; a node two or more cells outside the grid
// gets no range. Every bucketed node outside the ranges is farther than
// the reach from p.
//
//oblint:hotpath
func (c *Cells) Near(p int, rows *[9][2]int32) int {
	var cc [maxCoordDim]int
	for k := 0; k < c.dim; k++ {
		q := (c.flat[p*c.dim+k] - c.lo[k]) / c.h
		if !(q >= -1 && q < float64(c.span[k]+1)) {
			return 0
		}
		cc[k] = int(math.Floor(q))
	}
	return c.rows(cc, rows)
}

// rows is Near for the cell at coordinates cc.
//
//oblint:hotpath
func (c *Cells) rows(cc [maxCoordDim]int, rows *[9][2]int32) int {
	x0, x1 := max(cc[0]-1, 0), min(cc[0]+1, c.span[0]-1)
	y0, y1 := max(cc[1]-1, 0), min(cc[1]+1, c.span[1]-1)
	z0, z1 := max(cc[2]-1, 0), min(cc[2]+1, c.span[2]-1)
	nr := 0
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			base := y*c.stride[1] + z*c.stride[2]
			if a, b := c.start[base+x0], c.start[base+x1+1]; a < b {
				rows[nr] = [2]int32{a, b}
				nr++
			}
		}
	}
	return nr
}

// Pairs calls visit(u, v) once for every unordered pair of bucketed
// nodes in adjacent cells: a superset of the pairs within reach.
//
//oblint:hotpath
func (c *Cells) Pairs(visit func(u, v int)) {
	var rows [9][2]int32
	for key := 0; key+1 < len(c.start); key++ {
		a, end := int(c.start[key]), int(c.start[key+1])
		if a == end {
			continue
		}
		nr := c.rows(c.cellOf(key), &rows)
		for i := a; i < end; i++ {
			u := int(c.nodes[i])
			for _, rg := range rows[:nr] {
				// Each cell lies in its neighbours' rows, so counting
				// only the later slot of a pair visits it once.
				for j := max(int(rg[0]), i+1); j < int(rg[1]); j++ {
					visit(u, int(c.nodes[j]))
				}
			}
		}
	}
}

// spacing returns the mean spacing of all the nodes for a
// target of per nodes per cell: the edge whose cells, laid over the
// occupied axes of the bounding box, hold per nodes each on average. ok
// is false when every node coincides or a coordinate is not finite.
func (c *Cells) spacing(per float64) (float64, bool) {
	lo, hi, ok := c.bounds(c.allNodes())
	if !ok {
		return 0, false
	}
	vol, eff := 1.0, 0
	for k := 0; k < c.dim; k++ {
		if ext := hi[k] - lo[k]; ext > 0 {
			vol *= ext
			eff++
		}
	}
	if eff == 0 {
		return 0, false
	}
	return math.Pow(vol*per/float64(c.n), 1/float64(eff)), true
}

// minDist is MinDist over the grid: start at the mean spacing, test the
// pairs of adjacent cells, and accept their minimum once it lies within
// the reach, below which no untested pair can fall. Otherwise regrid with
// the reach at that minimum (which then certainly lies within it), or
// double the reach when no pair was adjacent. ok is false when the grid
// gives up; the caller scans.
func (c *Cells) minDist(dist func(i, j int) float64) (float64, bool) {
	if c.n < minCellNodes {
		return 0, false
	}
	reach, ok := c.spacing(1)
	if !ok {
		return 0, false
	}
	for {
		if !c.Bucket(nil, reach) {
			return 0, false
		}
		best := math.Inf(1)
		c.Pairs(func(u, v int) {
			if d := dist(u, v); d < best {
				best = d
			}
		})
		if best <= reach {
			return best, true
		}
		if math.IsInf(best, 1) {
			reach *= 2
		} else {
			reach = best
		}
	}
}

// maxDist is MaxDist over a coarse grid of about √n cells: it bounds the
// distances between every two cells from their members' bounding boxes
// and evaluates cell pairs in decreasing order of that bound until the
// bound drops below the largest distance found. ok is false when the grid
// gives up; the caller scans.
//
// The bound is conservative: for nodes of boxes A and B the exact axis
// difference is at most s_k = max(hiB_k − loA_k, hiA_k − loB_k); the
// computed √Σ s_k² is within a relative 2⁻⁴⁹ of its exact value, the
// computed distance within 2⁻⁴⁹ of the exact distance, and the factor
// 1 + 2⁻²⁰ covers both. A skipped cell pair only holds distances below
// the maximum, so the result is bitwise the all-pairs scan's.
func (c *Cells) maxDist(dist func(i, j int) float64) (float64, bool) {
	if c.n < minCellNodes {
		return 0, false
	}
	edge, ok := c.spacing(math.Sqrt(float64(c.n)))
	if !ok || !c.bucket(nil, edge, 1) {
		return 0, false
	}
	type box struct {
		a, b   int // slot range
		lo, hi [maxCoordDim]float64
	}
	var boxes []box
	for key := 0; key+1 < len(c.start); key++ {
		bx := box{a: int(c.start[key]), b: int(c.start[key+1])}
		if bx.a == bx.b {
			continue
		}
		for k := 0; k < c.dim; k++ {
			bx.lo[k], bx.hi[k] = math.Inf(1), math.Inf(-1)
		}
		for _, u := range c.nodes[bx.a:bx.b] {
			for k, x := range c.flat[int(u)*c.dim : (int(u)+1)*c.dim] {
				bx.lo[k] = min(bx.lo[k], x)
				bx.hi[k] = max(bx.hi[k], x)
			}
		}
		boxes = append(boxes, bx)
	}
	type cand struct {
		ub   float64
		a, b int32
	}
	cands := make([]cand, 0, len(boxes)*(len(boxes)+1)/2)
	for a := range boxes {
		for b := a; b < len(boxes); b++ {
			A, B := &boxes[a], &boxes[b]
			var ss float64
			for k := 0; k < c.dim; k++ {
				s := max(B.hi[k]-A.lo[k], A.hi[k]-B.lo[k])
				ss += s * s
			}
			cands = append(cands, cand{ub: math.Sqrt(ss) * (1 + cellSlack), a: int32(a), b: int32(b)})
		}
	}
	slices.SortFunc(cands, func(x, y cand) int { return cmp.Compare(y.ub, x.ub) })
	var best float64
	for _, cd := range cands {
		if cd.ub < best {
			break
		}
		best = c.farthest(dist, boxes[cd.a].a, boxes[cd.a].b, boxes[cd.b].a, boxes[cd.b].b, best)
	}
	return best, true
}

// farthest returns the maximum of best and the distances between the
// slots [a0, a1) and [b0, b1); equal ranges count each pair once.
//
//oblint:hotpath
func (c *Cells) farthest(dist func(i, j int) float64, a0, a1, b0, b1 int, best float64) float64 {
	for i := a0; i < a1; i++ {
		u := int(c.nodes[i])
		j := b0
		if a0 == b0 {
			j = i + 1
		}
		for ; j < b1; j++ {
			if d := dist(u, int(c.nodes[j])); d > best {
				best = d
			}
		}
	}
	return best
}
