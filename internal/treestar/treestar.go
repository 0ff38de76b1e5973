package treestar

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/hst"
	"repro/internal/par"
	"repro/internal/sinr"
	"repro/internal/star"
)

// TreeOptions tunes SelectOnTree.
type TreeOptions struct {
	// Faithful uses the worst-case parameterized star selection of Lemma 5
	// (star.Select) at every recursion level, as in the paper's proof.
	// The default (false) uses star.SelectLight — greedy thinning at the
	// target gain — which retains far more nodes on benign inputs while
	// guaranteeing the same feasibility postcondition.
	Faithful bool

	// scratch supplies the reusable per-selection buffers; the pipeline
	// threads one through every color class. Nil allocates fresh.
	scratch *treeScratch
}

// treeScratch holds the O(t.N()) marker arrays of SelectOnTreeCtx, reused
// across the restricted instances of a coloring.
type treeScratch struct {
	alive  []bool
	compID []int32
	pos    []int32
	// lossv is the loss map flattened to node-indexed storage; only
	// terminal entries are written (and only terminal entries are read),
	// so it needs no clearing between classes.
	lossv []float64
}

// sized returns the marker arrays for an n-node tree, reallocating only
// on growth. alive and compID are cleared (component id 0 is the root
// frame); pos is stamped per frame before any read.
func (sc *treeScratch) sized(n int) (alive []bool, compID, pos []int32) {
	if cap(sc.alive) < n {
		sc.alive = make([]bool, n)
		sc.compID = make([]int32, n)
		sc.pos = make([]int32, n)
	}
	alive, compID, pos = sc.alive[:n], sc.compID[:n], sc.pos[:n]
	clear(alive)
	clear(compID)
	return alive, compID, pos
}

// TreeStats reports diagnostics from SelectOnTree.
type TreeStats struct {
	// Levels is the depth of the centroid recursion.
	Levels int
	// StarCalls is the number of star selections performed.
	StarCalls int
	// DroppedByStars is the number of terminals dropped by star selections.
	DroppedByStars int
	// DroppedRepair is the number of terminals dropped by the final
	// check on the tree metric (hst.Embedding.Repair).
	DroppedRepair int
}

// SelectOnTree realizes Lemma 9 constructively on an HST. Given the
// embedding, a set of terminal nodes (leaves) with loss parameters, and
// the witness gain betaPrime (the gain for which the terminal set is
// feasible under some power assignment), it returns a subset of the
// terminals that is beta-feasible under the square root assignment with
// respect to the HST metric.
//
// The recursion runs on the HST's explicit tree, whose internal nodes are
// Steiner nodes: it splits the tree at a centroid c, runs the star
// selection of Lemma 5 on the star metric induced by the tree distances to
// c, and recurses into the subtrees; a terminal survives if it survives at
// every recursion level. Every pair of terminals has its exact tree
// distance in the star of the level at which it is separated, so the
// per-level star budgets sum to a global interference bound. The
// survivors then pass the final check at gain beta, Embedding.Repair.
func SelectOnTree(m sinr.Model, e *hst.Embedding, terminals []int, loss map[int]float64, betaPrime, beta float64, opts TreeOptions) ([]int, *TreeStats, error) {
	return SelectOnTreeCtx(context.Background(), m, e, terminals, loss, betaPrime, beta, opts)
}

// frameResult carries one component's parallel-phase output into the
// sequential merge.
type frameResult struct {
	active   bool
	err      error
	centroid int
	dropped  []int
	comps    [][]int
}

// SelectOnTreeCtx is SelectOnTree under a context, polled once per
// recursion level — stage 3 of the pipeline runs minutes at scale, and
// cancellation must not wait for the whole selection.
//
// The centroid recursion is processed level-synchronously: all
// components of one depth are independent (they partition the tree
// nodes, and a star selection only reads terminals of its own
// component), so each level fans out across the bounded worker pool and
// merges its results in component order. The merge order, the in-frame
// scan orders, and the component numbering are all deterministic, so the
// kept set is bitwise-identical to the sequential recursion regardless
// of GOMAXPROCS.
func SelectOnTreeCtx(ctx context.Context, m sinr.Model, e *hst.Embedding, terminals []int, loss map[int]float64, betaPrime, beta float64, opts TreeOptions) ([]int, *TreeStats, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if len(terminals) == 0 {
		return nil, nil, errors.New("treestar: no terminals")
	}
	missing := -1
	for _, v := range terminals {
		if _, ok := loss[v]; !ok {
			missing = v
			break
		}
	}
	if missing >= 0 {
		return nil, nil, fmt.Errorf("treestar: terminal %d has no loss parameter", missing)
	}
	t, err := e.ExplicitTree()
	if err != nil {
		return nil, nil, err
	}
	stats := &TreeStats{}
	sc := opts.scratch
	if sc == nil {
		sc = &treeScratch{}
	}
	alive, compID, pos := sc.sized(t.N())
	if cap(sc.lossv) < t.N() {
		sc.lossv = make([]float64, t.N())
	}
	lossv := sc.lossv[:t.N()]
	for _, v := range terminals {
		alive[v] = true
		lossv[v] = loss[v]
	}

	// Per-level star gain: the recursion depth is at most log2 of the tree
	// size, and each level contributes at most 1/(starGain·√ℓ_u)
	// interference, so starGain = levels·beta keeps the total within the
	// beta budget.
	maxLevels := int(math.Ceil(math.Log2(float64(t.N())))) + 1
	starGain := float64(maxLevels) * beta
	if starGain > betaPrime {
		starGain = betaPrime
	}

	all := make([]int, t.N())
	ident := int32(0)
	for i := range all {
		all[i] = i
		pos[i] = ident
		ident++
	}
	type frame struct {
		nodes []int
		id    int32
	}
	wave := []frame{{nodes: all, id: 0}}
	nextID := int32(1)
	for depth := 1; len(wave) > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		stats.Levels = depth
		results := make([]frameResult, len(wave))
		// Parallel phase: per-component reads only — alive, compID and pos
		// are written exclusively by the sequential merge below, and the
		// components of one wave are node-disjoint.
		par.ForEach(len(wave), func(fi int) {
			f := &wave[fi]
			res := &results[fi]
			if len(f.nodes) <= 1 {
				return
			}
			terms := make([]int, 0, len(f.nodes))
			for _, v := range f.nodes {
				if alive[v] {
					terms = append(terms, v)
				}
			}
			if len(terms) <= 1 {
				return
			}
			c := centroid(t, f.nodes, compID, f.id, pos)

			// Star selection at this level.
			kept, err := selectStarAt(m, t, c, terms, lossv, betaPrime, starGain, beta, opts)
			if err != nil {
				res.err = err
				return
			}
			keptSet := make(map[int]bool, len(kept))
			for _, v := range kept {
				keptSet[v] = true
			}
			dropped := make([]int, 0, len(terms)-len(kept))
			for _, v := range terms {
				if !keptSet[v] {
					dropped = append(dropped, v)
				}
			}
			res.active = true
			res.centroid = c
			res.dropped = dropped
			res.comps = componentsWithout(t, f.nodes, compID, f.id, pos, c)
		})
		// Sequential merge in component order: apply drops, stamp the
		// child components, build the next wave.
		next := wave[:0]
		for fi := range results {
			res := &results[fi]
			if res.err != nil {
				return nil, nil, res.err
			}
			if !res.active {
				continue
			}
			stats.StarCalls++
			stats.DroppedByStars += len(res.dropped)
			for _, v := range res.dropped {
				alive[v] = false
			}
			// Split at the centroid: the components without it, with the
			// centroid attached to its largest component (the paper keeps
			// one incident edge).
			comps := res.comps
			if len(comps) == 0 {
				continue
			}
			largest := 0
			for i := 1; i < len(comps); i++ {
				if len(comps[i]) > len(comps[largest]) {
					largest = i
				}
			}
			comps[largest] = append(comps[largest], res.centroid)
			for _, comp := range comps {
				if len(comp) > 1 {
					id := nextID
					nextID++
					for i, v := range comp {
						compID[v] = id
						pos[v] = int32(i)
					}
					next = append(next, frame{nodes: comp, id: id})
				}
			}
		}
		wave = next
	}

	// Final check on the HST metric at gain beta.
	kept := make([]int, 0, len(terminals))
	for _, v := range terminals {
		if alive[v] {
			kept = append(kept, v)
		}
	}
	kept, stats.DroppedRepair = e.Repair(m, kept, lossv, beta)
	if len(kept) == 0 {
		return nil, stats, errors.New("treestar: selection removed every terminal")
	}
	return kept, stats, nil
}

// selectStarAt builds the star induced by tree distances to center c over
// the given terminals and runs the Lemma 5 selection. A terminal located
// exactly at c receives a tiny positive radius, which only overestimates
// its received interference (the star distance ε+δ_v ≈ δ_v is the exact
// tree distance).
func selectStarAt(m sinr.Model, t *geom.Tree, c int, terms []int, loss []float64, betaPrime, starGain, beta float64, opts TreeOptions) ([]int, error) {
	radii := make([]float64, len(terms))
	losses := make([]float64, len(terms))
	minPos := math.Inf(1)
	for i, v := range terms {
		radii[i] = t.Dist(v, c)
		losses[i] = loss[v]
		if radii[i] > 0 && radii[i] < minPos {
			minPos = radii[i]
		}
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	for i := range radii {
		if radii[i] == 0 {
			radii[i] = minPos / 1e6
		}
	}
	st, err := star.New(radii, losses)
	if err != nil {
		return nil, err
	}
	var keptIdx []int
	if opts.Faithful {
		keptIdx, _, err = star.Select(m, st, betaPrime, starGain)
	} else {
		keptIdx, err = star.SelectLight(m, st, beta)
	}
	if err != nil {
		// An empty star selection is not fatal for the pipeline: treat it
		// as dropping all terminals of this component.
		return nil, nil
	}
	kept := make([]int, len(keptIdx))
	for i, k := range keptIdx {
		kept[i] = terms[k]
	}
	return kept, nil
}

// centroid returns a node of the component whose removal leaves connected
// pieces of at most half the component's size. Membership is the stamp
// test compID[v] == id, and pos maps a member to its index in nodes, so
// all bookkeeping runs on position-indexed slices instead of the maps
// that dominated stage 3's profile.
func centroid(t *geom.Tree, nodes []int, compID []int32, id int32, pos []int32) int {
	if len(nodes) == 1 {
		return nodes[0]
	}
	n := len(nodes)
	// Iterative pre-order from nodes[0] to compute subtree sizes within
	// the component; everything is indexed by position in nodes.
	size := make([]int32, n)
	parent := make([]int32, n)
	order := make([]int32, 0, n)
	stack := make([]int32, 0, n)
	seen := make([]bool, n)
	seen[0] = true
	parent[0] = -1
	stack = append(stack, 0)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, p)
		u := nodes[p]
		for k, deg := 0, t.Degree(u); k < deg; k++ {
			v, _ := t.Neighbor(u, k)
			if compID[v] != id {
				continue
			}
			if q := pos[v]; !seen[q] {
				seen[q] = true
				parent[q] = p
				stack = append(stack, q)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		p := order[i]
		size[p]++
		if pp := parent[p]; pp >= 0 {
			size[pp] += size[p]
		}
	}
	total := int32(len(order))
	best, bestMax := nodes[0], total
	for _, p := range order {
		// Maximum component size if this node is removed.
		worst := total - size[p]
		u := nodes[p]
		for k, deg := 0, t.Degree(u); k < deg; k++ {
			v, _ := t.Neighbor(u, k)
			if compID[v] != id {
				continue
			}
			if q := pos[v]; parent[q] == p && size[q] > worst {
				worst = size[q]
			}
		}
		if worst < bestMax {
			bestMax = worst
			best = u
		}
	}
	return best
}

// componentsWithout returns the connected components of the component
// (the nodes stamped with id) after removing node c.
func componentsWithout(t *geom.Tree, nodes []int, compID []int32, id int32, pos []int32, c int) [][]int {
	visited := make([]bool, len(nodes))
	visited[pos[c]] = true
	var comps [][]int
	stack := make([]int, 0, len(nodes))
	for _, s := range nodes {
		if visited[pos[s]] {
			continue
		}
		visited[pos[s]] = true
		var comp []int
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for k, deg := 0, t.Degree(u); k < deg; k++ {
				v, _ := t.Neighbor(u, k)
				if compID[v] != id || visited[pos[v]] {
					continue
				}
				visited[pos[v]] = true
				stack = append(stack, v)
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// PipelineStats aggregates diagnostics of one run of the Theorem 2 pipeline.
type PipelineStats struct {
	// ActiveNodes is the number of request endpoints (2·requests).
	ActiveNodes int
	// CoreNodes is the size of the best tree core (Proposition 7).
	CoreNodes int
	// TreeKept is the number of nodes surviving the tree selection
	// (Lemma 9).
	TreeKept int
	// PairsKept is the number of requests with both endpoints kept.
	PairsKept int
	// FinalPairs is the number of requests after the final thinning in the
	// original metric.
	FinalPairs int
	Tree       TreeStats
}

// Pipeline extracts one color class of requests that is feasible in the
// ORIGINAL metric under the square root power assignment with gain m.Beta,
// following the proof of Theorem 2 end to end: split pairs into node-loss
// form (Section 3.2), embed into O(log n) random trees and keep the best
// core (Lemma 6 / Proposition 7), select on the tree via stars (Lemmas 5
// and 9), return to pairs, and thin to the full gain in the original metric
// (Lemma 8 / Proposition 3). The returned indices refer to in.Reqs.
type Pipeline struct {
	// Faithful selects the worst-case parameterized star selection inside
	// the tree stage (see TreeOptions.Faithful).
	Faithful bool
	// Engine overrides how the affectance engine the final thinning stage
	// builds for large kept sets is built (see CacheBuilder); nil selects
	// the exact dense cache. Solvers route the sparse grid engine through
	// it so the pipeline scales past the dense O(n²) memory wall, and the
	// matrix-free direct engine under the direct mode.
	Engine CacheBuilder
}
