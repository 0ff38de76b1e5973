package hst

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/par"
)

// Embedding is one random HST over the nodes of a base metric.
type Embedding struct {
	base geom.Metric
	// level[i][u] is the cluster id of node u at level i; level 0 has
	// singleton clusters, the top level one cluster.
	level [][]int
	// radii[i] is the cluster radius b·2^{i-1} at level i.
	radii []float64
	// b is the random scale factor in [1, 2).
	b float64

	// Scan-path accelerators, derived from the fields above by finish()
	// and carrying no information of their own. byNode holds the cluster
	// ids transposed per node (byNode[u·depth+i] = level[i][u]) so the
	// per-pair separation scan walks two contiguous slices; pow2[i] is
	// exactly 2^i, replacing a math.Pow per pair; dist is the
	// devirtualized base.Dist (geom.DistFunc). The O(n²) stretch scans
	// over these run ≈4× faster than through the naive representations,
	// bitwise-identically.
	byNode []int32
	pow2   []float64
	dist   func(i, j int) float64
	// top is the lowest level with a single cluster: no pair separates
	// above it, which bounds every tree distance (see indexStretch).
	top int

	// cells is the stretch scans' cell index for the bound cellsBound,
	// set by BuildEnsembleObserved for its stretch bound; nil (and any
	// other bound) leaves the scans testing every pair.
	cells      *geom.Cells
	cellsBound float64
}

// finish derives the scan-path accelerators from level/radii/b.
func (e *Embedding) finish() {
	n := e.base.N()
	depth := len(e.level)
	e.byNode = make([]int32, n*depth)
	for i, lv := range e.level {
		for u, id := range lv {
			e.byNode[u*depth+i] = int32(id)
		}
	}
	e.pow2 = make([]float64, depth+1)
	p := 1.0
	for i := range e.pow2 {
		e.pow2[i] = p
		p *= 2
	}
	e.dist = geom.DistFunc(e.base)
	e.top = depth - 1
	for i, lv := range e.level {
		if slices.Max(lv) == 0 {
			e.top = i
			break
		}
	}
}

// sep returns the first index at which the two transposed cluster-id
// rows agree — the separation level — or the top level if only the root
// cluster is shared. It is the one copy of the walk behind sepLevel and
// exceeds.
//
//oblint:hotpath
func sep(lu, lv []int32) int {
	for i := range lu {
		if lu[i] == lv[i] {
			return i
		}
	}
	return len(lu) - 1
}

// exceeds reports whether the pair (v, u) stretches beyond bound,
// T(v,u)/d(v,u) > bound with coincident nodes stretching infinitely: the
// one copy of the stretch test behind StretchWithin and violatedMask, on
// the cell index and off it.
//
//oblint:hotpath
func (e *Embedding) exceeds(v, u int, bound float64) bool {
	d := e.dist(v, u)
	if d == 0 {
		return true
	}
	depth := len(e.level)
	s := sep(e.byNode[u*depth:(u+1)*depth], e.byNode[v*depth:(v+1)*depth])
	return 2*e.b*(e.pow2[s]-1)/d > bound
}

// sepLevel returns the smallest level at which u and v share a cluster.
//
//oblint:hotpath
func (e *Embedding) sepLevel(u, v int) int {
	depth := len(e.level)
	return sep(e.byNode[u*depth:(u+1)*depth], e.byNode[v*depth:(v+1)*depth])
}

// Dist returns the HST distance between u and v: both nodes hang at depth
// equal to the separation level below their lowest common cluster, with
// edge weight equal to the cluster radius at each level, so
// T(u,v) = 2·Σ_{j=1..sep} b·2^{j-1} = 2b·(2^sep − 1).
//
//oblint:hotpath
func (e *Embedding) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	sep := e.sepLevel(u, v)
	return 2 * e.b * (e.pow2[sep] - 1)
}

// N returns the number of nodes.
func (e *Embedding) N() int { return e.base.N() }

var _ geom.Metric = (*Embedding)(nil)

// Build constructs one random FRT-style HST over the metric. The metric
// must have strictly positive distances between distinct nodes.
func Build(base geom.Metric, rng *rand.Rand) (*Embedding, error) {
	if n := base.N(); n > 0 {
		return build(base, rng, geom.MinDist(base), geom.MaxDist(base))
	}
	return nil, errors.New("hst: empty metric")
}

// build is Build with the O(n²) metric extremes hoisted out, so an
// ensemble computes them once instead of once per tree.
func build(base geom.Metric, rng *rand.Rand, minD, maxD float64) (*Embedding, error) {
	n := base.N()
	if n == 0 {
		return nil, errors.New("hst: empty metric")
	}
	if n > 1 && !(minD > 0) {
		return nil, errors.New("hst: coincident nodes")
	}
	if n == 1 {
		e := &Embedding{base: base, level: [][]int{{0}}, radii: []float64{0}, b: 1}
		e.finish()
		return e, nil
	}
	dist := geom.DistFunc(base)

	// Scale so the minimum distance is 1 (implicitly: work with d/minD).
	scale := 1 / minD
	// Number of levels: radius at level L must cover the diameter.
	lmax := int(math.Ceil(math.Log2(maxD*scale))) + 2
	if lmax < 1 {
		lmax = 1
	}

	perm := rng.Perm(n)
	b := 1 + rng.Float64()

	// Build the laminar partition family top-down: the top level is a
	// single cluster; descending to level i, each node u picks the first
	// permutation node within the level radius r_i = b·2^{i-1}, and the new
	// cluster is keyed by (parent cluster, picked center), which refines
	// the parent partition. At level 0 the radius is below the minimum
	// distance, so clusters are singletons.
	level := make([][]int, lmax+1)
	radii := make([]float64, lmax+1)
	level[lmax] = make([]int, n) // all zeros: one cluster
	radii[lmax] = b * math.Pow(2, float64(lmax-1)) / scale
	cl := claimer{dist: dist, perm: perm, pos: make([]int, n), center: make([]int, n), cells: geom.NewCells(base)}
	// Cluster ids are dense per level, numbered in order of first
	// appearance of (parent cluster, center) over the nodes. The first
	// cluster of each center is kept in firstParent/firstID; only a
	// center whose nodes straddle parent clusters sends its further
	// clusters through the map.
	firstParent, firstID := make([]int, n), make([]int, n)
	type key struct{ parent, center int }
	more := make(map[key]int)
	for i := lmax - 1; i >= 0; i-- {
		r := b * math.Pow(2, float64(i-1)) / scale
		radii[i] = r
		// Below the minimum distance no node other than u itself can sit
		// within r, and u is always within r of itself, so every node is
		// its own center — skip the search. This keeps the singleton
		// bottom level(s) O(n).
		if r < minD {
			for u := range cl.center {
				cl.center[u] = u
			}
		} else {
			cl.level(r)
		}
		cur := make([]int, n)
		for c := range firstParent {
			firstParent[c] = -1
		}
		clear(more)
		next := 0
		for u, c := range cl.center {
			parent := level[i+1][u]
			switch {
			case firstParent[c] < 0:
				firstParent[c], firstID[c] = parent, next
				next++
			case firstParent[c] != parent:
				k := key{parent: parent, center: c}
				id, ok := more[k]
				if !ok {
					id = next
					next++
					more[k] = id
				}
				cur[u] = id
				continue
			}
			cur[u] = firstID[c]
		}
		level[i] = cur
	}

	e := &Embedding{base: base, level: level, radii: radii, b: b / scale}
	e.finish()
	return e, nil
}

// Stretch returns max over u ≠ v of T(v,u)/d(v,u) for the given node v.
//
//oblint:hotpath
func (e *Embedding) Stretch(v int) float64 {
	n := e.base.N() //oblint:ignore one O(1) metadata call per scan, not per pair
	var worst float64
	for u := 0; u < n; u++ {
		if u == v {
			continue
		}
		d := e.dist(v, u)
		if d == 0 {
			return math.Inf(1)
		}
		if s := e.Dist(v, u) / d; s > worst {
			worst = s
		}
	}
	return worst
}

// StretchWithin decides Stretch(v) ≤ bound — the core-membership
// predicate of Lemma 6 — with the same pairs and the same arithmetic,
// but returning false at the first violating partner instead of always
// paying the full O(n) scan. The ensemble's core computations run on it;
// Stretch remains for callers that need the value itself. On a tree
// indexed for bound (see indexStretch) only v's partners in adjacent
// cells are tested: no other partner can violate the bound.
//
//oblint:hotpath
func (e *Embedding) StretchWithin(v int, bound float64) bool {
	if cells := e.stretchCells(bound); cells != nil {
		var rows [9][2]int32
		nr := cells.Near(v, &rows)
		for _, rg := range rows[:nr] {
			for s := int(rg[0]); s < int(rg[1]); s++ {
				if u := cells.Node(s); u != v && e.exceeds(v, u, bound) {
					return false
				}
			}
		}
		return true
	}
	n := e.base.N() //oblint:ignore one O(1) metadata call per scan, not per pair
	for u := 0; u < n; u++ {
		if u != v && e.exceeds(v, u, bound) {
			return false
		}
	}
	return true
}

// violatedMask returns, for every node, whether its stretch exceeds
// bound. The stretch ratio T(u,v)/d(u,v) is symmetric, so each unordered
// pair is evaluated once and charged to both endpoints — half the work of
// n StretchWithin scans — with the same arithmetic and hence the same
// verdicts; pairs whose endpoints are both already violated are skipped
// (their ratio can no longer change any verdict). On a tree indexed for
// bound only the pairs in adjacent cells are evaluated.
//
//oblint:hotpath
func (e *Embedding) violatedMask(bound float64) []bool {
	n := e.base.N() //oblint:ignore one O(1) metadata call per scan, not per pair
	out := make([]bool, n)
	if cells := e.stretchCells(bound); cells != nil {
		cells.Pairs(func(v, u int) {
			if !(out[v] && out[u]) && e.exceeds(v, u, bound) {
				out[v], out[u] = true, true
			}
		})
		return out
	}
	for v := 0; v < n; v++ {
		for u := v + 1; u < n; u++ {
			if !(out[v] && out[u]) && e.exceeds(v, u, bound) {
				out[v], out[u] = true, true
			}
		}
	}
	return out
}

// Dominates verifies T(u,v) ≥ d(u,v) for all pairs (up to a relative
// tolerance); the FRT construction guarantees it, and tests call this.
func (e *Embedding) Dominates() bool {
	n := e.base.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if e.Dist(u, v) < e.base.Dist(u, v)*(1-1e-9) {
				return false
			}
		}
	}
	return true
}

// Ensemble is a collection of independent HST samples over one metric,
// playing the role of the trees T_1..T_r of Lemma 6.
type Ensemble struct {
	Trees []*Embedding
	// StretchBound is the stretch threshold defining tree cores.
	StretchBound float64
}

// BuildEnsemble samples r independent HSTs. A stretchBound ≤ 0 defaults to
// 24·ln(n+1): an O(log n) threshold calibrated so that, matching Lemma 6's
// statement, roughly 9/10 of the trees are good for each node (the
// per-node quantity is the maximum stretch over all partners, which needs
// a larger constant than the FRT expected per-pair stretch).
//
// The trees are built concurrently; determinism is preserved by drawing one
// seed per tree from rng up front, so equal rng states yield equal
// ensembles regardless of scheduling.
func BuildEnsemble(base geom.Metric, r int, stretchBound float64, rng *rand.Rand) (*Ensemble, error) {
	return BuildEnsembleObserved(base, r, stretchBound, rng, nil)
}

// BuildEnsembleObserved is BuildEnsemble reporting each tree build as a
// span "pipeline/hst-build" on the collector, so the r concurrent
// builds aggregate into one per-tree latency distribution. It takes the
// collector directly rather than a context: the per-tree goroutines are
// the instrumented unit, and a nil collector keeps them span-free.
//
// Validation runs before any seed is drawn from rng: an error return
// leaves the caller's rng stream exactly where it was, so retrying with
// fixed arguments reproduces the same ensemble.
func BuildEnsembleObserved(base geom.Metric, r int, stretchBound float64, rng *rand.Rand, col *obs.Collector) (*Ensemble, error) {
	if r <= 0 {
		return nil, fmt.Errorf("hst: need r ≥ 1 trees, got %d", r)
	}
	if base.N() == 0 {
		return nil, errors.New("hst: empty metric")
	}
	if stretchBound <= 0 {
		stretchBound = 24 * math.Log(float64(base.N())+1)
	}
	seeds := make([]int64, r)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	// The metric extremes are tree-independent; computing the two O(n²)
	// scans once here instead of inside every Build is an r-fold saving.
	minD, maxD := geom.MinDist(base), geom.MaxDist(base)
	trees := make([]*Embedding, r)
	errs := make([]error, r)
	// Bounded fan-out: each concurrent build holds O(n·depth) scratch, so
	// the pool caps peak memory at GOMAXPROCS builds instead of r.
	par.ForEach(r, func(i int) {
		sp := col.StartSpan("pipeline/hst-build")
		defer sp.End()
		trees[i], errs[i] = build(base, rand.New(rand.NewSource(seeds[i])), minD, maxD)
		if errs[i] == nil {
			trees[i].indexStretch(stretchBound)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Ensemble{Trees: trees, StretchBound: stretchBound}, nil
}

// Core returns the nodes of tree t whose stretch is within the ensemble's
// bound (the core C_t of Lemma 6).
func (en *Ensemble) Core(t int) []int {
	var core []int
	tree := en.Trees[t]
	violated := tree.violatedMask(en.StretchBound)
	for v := 0; v < tree.N(); v++ {
		if !violated[v] {
			core = append(core, v)
		}
	}
	return core
}

// GoodTreeFraction returns, for node v, the fraction of trees whose core
// contains v. Lemma 6 guarantees this is ≥ 9/10 for suitable parameters.
func (en *Ensemble) GoodTreeFraction(v int) float64 {
	var good int
	for _, t := range en.Trees {
		if t.StretchWithin(v, en.StretchBound) {
			good++
		}
	}
	return float64(good) / float64(len(en.Trees))
}

// BestCoreTree returns the index of the tree whose core covers the most
// nodes of the given set, together with the covered subset (Proposition 7's
// constructive counterpart).
func (en *Ensemble) BestCoreTree(set []int) (int, []int) {
	// One stretch scan per (tree, node) pair is the pipeline's hottest
	// loop at scale; the trees are independent, so fan them out — bounded
	// at GOMAXPROCS, because each in-flight scan holds an O(n) mask.
	covered := make([][]int, len(en.Trees))
	par.ForEach(len(en.Trees), func(t int) {
		covered[t] = en.coveredOf(t, set)
	})
	bestTree, bestCovered := 0, []int(nil)
	for t := range covered {
		if len(covered[t]) > len(bestCovered) {
			bestTree, bestCovered = t, covered[t]
		}
	}
	return bestTree, bestCovered
}

// coveredOf returns the members of set inside tree t's core, via one
// exact violatedMask scan.
func (en *Ensemble) coveredOf(t int, set []int) []int {
	violated := en.Trees[t].violatedMask(en.StretchBound)
	covered := make([]int, 0, len(set))
	for _, v := range set {
		if !violated[v] {
			covered = append(covered, v)
		}
	}
	return covered
}

// Sampling parameters of BestCoreTreeSampled: below the threshold the
// exact scan is cheap enough to keep; above it each tree is scored on a
// fixed-size rng-drawn subset.
const (
	coreSampleThreshold = 4096
	coreSampleSize      = 1024
)

// BestCoreTreeSampled is BestCoreTree with the full (tree × node)
// stretch scan — the measured hot spot of the pipeline at scale —
// replaced, for len(set) ≥ 4096, by a two-round tournament: every tree
// is scored by core coverage of a 1024-node sample drawn from rng, and
// only the top two candidates pay the exact violatedMask rescan
// (exactness fallback). The returned covered subset is always exact for
// the returned tree. The sample is drawn from rng before any concurrent
// work, so equal rng states give equal results regardless of
// GOMAXPROCS; below the threshold rng is not consumed at all and the
// result equals BestCoreTree's.
func (en *Ensemble) BestCoreTreeSampled(set []int, rng *rand.Rand) (int, []int) {
	if len(set) < coreSampleThreshold || len(en.Trees) <= 2 {
		return en.BestCoreTree(set)
	}
	// Partial Fisher–Yates over a copy: the first coreSampleSize entries
	// become a uniform sample without replacement.
	sample := append([]int(nil), set...)
	for i := 0; i < coreSampleSize; i++ {
		j := i + rng.Intn(len(sample)-i)
		sample[i], sample[j] = sample[j], sample[i]
	}
	sample = sample[:coreSampleSize]
	counts := make([]int, len(en.Trees))
	par.ForEach(len(en.Trees), func(t int) {
		tree := en.Trees[t]
		good := 0
		for _, v := range sample {
			if tree.StretchWithin(v, en.StretchBound) {
				good++
			}
		}
		counts[t] = good
	})
	// Top two by sampled count; ties keep the lower tree index.
	first, second := 0, 1
	if counts[second] > counts[first] {
		first, second = second, first
	}
	for t := 2; t < len(counts); t++ {
		switch {
		case counts[t] > counts[first]:
			first, second = t, first
		case counts[t] > counts[second]:
			second = t
		}
	}
	finalists := [2]int{first, second}
	var exact [2][]int
	par.ForEach(len(finalists), func(k int) {
		exact[k] = en.coveredOf(finalists[k], set)
	})
	best := 0
	if len(exact[1]) > len(exact[0]) ||
		(len(exact[1]) == len(exact[0]) && finalists[1] < finalists[0]) {
		best = 1
	}
	return finalists[best], exact[best]
}

// ExplicitTree materializes the HST as an explicit edge-weighted tree whose
// first base.N() nodes are the metric's nodes (leaves) and whose remaining
// nodes are the internal clusters. It is the input for the centroid
// decomposition of Lemma 9.
func (e *Embedding) ExplicitTree() (*geom.Tree, error) {
	n := e.base.N()
	if n == 1 {
		return geom.NewTree(1)
	}
	depth := len(e.level)
	// Cluster ids are dense per level — the builder assigns them
	// 0,1,2,... in order of first appearance — so per-level slices index
	// cluster → explicit node directly, replacing the map-keyed
	// materialization that dominated stage 3 allocations at scale.
	// Level 0 clusters are the leaves themselves (nodes 0..n-1).
	nodeOf := make([][]int32, depth)
	next := n
	for i := 1; i < depth; i++ {
		lv := e.level[i]
		maxID := 0
		for _, id := range lv {
			if id > maxID {
				maxID = id
			}
		}
		ids := make([]int32, maxID+1)
		for k := range ids {
			ids[k] = -1
		}
		for _, id := range lv {
			if ids[id] < 0 {
				ids[id] = int32(next)
				next++
			}
		}
		nodeOf[i] = ids
	}
	t, err := geom.NewTree(next)
	if err != nil {
		return nil, err
	}
	// Edges: each cluster at level i-1 connects to its parent at level i
	// with weight equal to the level-i radius — one edge per child
	// cluster (all members of a child share the same parent; the family
	// is laminar).
	for i := 1; i < depth; i++ {
		lv := e.level[i]
		var added []bool
		if i > 1 {
			added = make([]bool, len(nodeOf[i-1]))
		}
		for u := 0; u < n; u++ {
			child := u
			if i > 1 {
				cid := e.level[i-1][u]
				if added[cid] {
					continue
				}
				added[cid] = true
				child = int(nodeOf[i-1][cid])
			}
			if err := t.AddEdge(child, int(nodeOf[i][lv[u]]), e.radii[i]); err != nil {
				return nil, err
			}
		}
	}
	if err := t.Finalize(); err != nil {
		return nil, err
	}
	return t, nil
}
