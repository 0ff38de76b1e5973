package hst

import (
	"math"
	"slices"

	"repro/internal/sinr"
)

// Repair is the final check of Lemma 9's tree selection: it removes nodes
// until the set is beta-feasible in this HST's metric under the square
// root assignment, where node u receives signal 1/√ℓ_u against
// interference I(u) = Σ_{v≠u} √ℓ_v / ℓ(T(u,v)). Each round removes the
// largest offender √ℓ_u·I(u), the earliest in nodes on ties, until every
// live u has 1/√ℓ_u ≥ β·I(u)·(1 − 1e−9). Two live nodes always tie. loss
// is indexed by node. kept lists the survivors in nodes order, in nodes'
// storage.
//
// Leaves that separate at level s sit 2b(2^s − 1) apart, so I(u) needs
// only the sums S_s(u) of √ℓ over the live members of u's level-s
// cluster: I(u) = Σ_{s=1..top} (S_s(u) − S_{s−1}(u)) / ℓ(2b(2^s − 1)),
// with S_0(u) = √ℓ_u. A round costs O(k·top) for k live nodes. Every
// round rebuilds the sums from the live nodes in nodes order: two
// clusters with the same live members then hold bitwise-equal sums, so
// their difference is exactly 0 rather than the residue a subtracted
// sum can leave, priced at the shortest level distance.
//
//oblint:hotpath
func (e *Embedding) Repair(m sinr.Model, nodes []int, loss []float64, beta float64) (kept []int, removed int) {
	k := len(nodes)
	sq := make([]float64, k)
	live := make([]int, k) // positions in nodes of the live members
	for a, v := range nodes {
		sq[a] = math.Sqrt(loss[v])
		live[a] = a
	}
	lossAt := make([]float64, e.top+1)
	for s := 1; s <= e.top; s++ {
		lossAt[s] = m.Loss(2 * e.b * (e.pow2[s] - 1))
	}
	sums := make([]float64, e.N()) // one level's cluster sums, by cluster id
	prev := make([]float64, k)     // S_{s−1}(u)
	inter := make([]float64, k)
	for {
		for _, a := range live {
			prev[a], inter[a] = sq[a], 0
		}
		for s := 1; s <= e.top; s++ {
			lv := e.level[s]
			for _, a := range live {
				sums[lv[nodes[a]]] += sq[a]
			}
			for _, a := range live {
				cur := sums[lv[nodes[a]]]
				inter[a] += (cur - prev[a]) / lossAt[s]
				prev[a] = cur
			}
			for _, a := range live {
				sums[lv[nodes[a]]] = 0
			}
		}
		feasible := true
		worst, worstScore := -1, math.Inf(-1)
		for i, a := range live {
			if 1/sq[a] < beta*inter[a]*(1-1e-9) {
				feasible = false
			}
			if score := sq[a] * inter[a]; score > worstScore {
				worst, worstScore = i, score
			}
		}
		if feasible || worst < 0 {
			break
		}
		if len(live) == 2 {
			// Each exerts √ℓ_u·√ℓ_v/ℓ(T(u,v)) on the other: an exact tie,
			// whatever the sums round to, so the earlier goes.
			worst = 0
		}
		live = slices.Delete(live, worst, worst+1)
		removed++
	}
	kept = nodes[:len(live)]
	for i, a := range live {
		kept[i] = nodes[a]
	}
	return kept, removed
}
