package hst

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sinr"
)

// pairwiseInterference returns I(u) = Σ_{v≠u} √ℓ_v/ℓ(d(u,v)) for every
// live u, from the explicit tree's shortest paths, summed in live order.
func pairwiseInterference(m sinr.Model, tree *geom.Tree, live []int, loss []float64) []float64 {
	inter := make([]float64, len(live))
	for a, u := range live {
		for _, v := range live {
			if v != u {
				inter[a] += math.Sqrt(loss[v]) / m.Loss(tree.Dist(u, v))
			}
		}
	}
	return inter
}

// repairReference is the final check priced pair by pair: every round it
// recomputes each live node's interference and removes the largest
// offender. Scores within a relative 1e-12 of the largest count as tied,
// and the earliest wins: two summation orders can round an exact tie
// apart.
func repairReference(m sinr.Model, tree *geom.Tree, nodes []int, loss []float64, beta float64) ([]int, int) {
	live := slices.Clone(nodes)
	removed := 0
	for {
		scores := make([]float64, len(live))
		feasible := true
		best := math.Inf(-1)
		for a, inter := range pairwiseInterference(m, tree, live, loss) {
			sq := math.Sqrt(loss[live[a]])
			if 1/sq < beta*inter*(1-1e-9) {
				feasible = false
			}
			scores[a] = sq * inter
			best = max(best, scores[a])
		}
		if feasible || len(live) == 0 {
			return live, removed
		}
		worst := 0
		for scores[worst] < best*(1-1e-12) {
			worst++
		}
		live = slices.Delete(live, worst, worst+1)
		removed++
	}
}

// repairPoints returns the point sets the check is compared on: uniform,
// clustered and integer-lattice points in one and two dimensions. The
// lattices put many pairs at exactly equal distances.
func repairPoints(r *rand.Rand) []namedMetric {
	line := func(xs []float64) geom.Metric {
		l, err := geom.NewLine(xs)
		if err != nil {
			panic(err)
		}
		return l
	}
	plane := func(pts [][]float64) geom.Metric {
		e, err := geom.NewEuclidean(pts)
		if err != nil {
			panic(err)
		}
		return e
	}
	var uni1, clu1, lat1 []float64
	var clu2, lat2 [][]float64
	for i := 0; i < 40; i++ {
		uni1 = append(uni1, r.Float64()*200)
		clu1 = append(clu1, float64(r.Intn(4))*100+r.Float64()*5)
		lat1 = append(lat1, float64(i))
		clu2 = append(clu2, []float64{float64(r.Intn(3))*80 + r.Float64()*6, float64(r.Intn(3))*80 + r.Float64()*6})
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			lat2 = append(lat2, []float64{float64(i), float64(j)})
		}
	}
	return []namedMetric{
		{"uniform-1d", line(uni1)}, {"clustered-1d", line(clu1)}, {"lattice-1d", line(lat1)},
		{"uniform-2d", randomPoints(r, 40, 200)}, {"clustered-2d", plane(clu2)}, {"lattice-2d", plane(lat2)},
	}
}

type namedMetric struct {
	name string
	geom.Metric
}

// TestRepairMatchesPairwise compares Repair's level sums with the
// pair-by-pair reference: equal kept sets and removal counts on every
// point set, loss profile and gain, from no removals up to a single
// survivor. Two gains sit 1e-4 either side of the largest at which the
// whole set is feasible, so interference mispriced by more than that
// flips the first round.
func TestRepairMatchesPairwise(t *testing.T) {
	m := sinr.Default()
	r := rand.New(rand.NewSource(9))
	mostRemoved, singles := 0, 0
	for _, base := range repairPoints(r) {
		name := base.name
		e, err := Build(base, r)
		if err != nil {
			t.Fatal(name, err)
		}
		tree, err := e.ExplicitTree()
		if err != nil {
			t.Fatal(name, err)
		}
		n := base.N()
		equal, random := make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			equal[v], random[v] = 1, 1+63*r.Float64()
		}
		var subset []int
		for v := 0; v < n; v++ {
			if r.Intn(4) > 0 {
				subset = append(subset, v)
			}
		}
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for lossName, loss := range map[string][]float64{"equal": equal, "random": random} {
			for _, nodes := range [][]int{all, subset} {
				edge := math.Inf(1)
				for a, inter := range pairwiseInterference(m, tree, nodes, loss) {
					edge = min(edge, 1/(math.Sqrt(loss[nodes[a]])*inter))
				}
				for _, beta := range []float64{1e-3, 0.05, 1, 20, 1e9, edge * (1 - 1e-4), edge * (1 + 1e-4)} {
					label := fmt.Sprintf("%s/%s/k=%d/β=%g", name, lossName, len(nodes), beta)
					wantKept, wantRemoved := repairReference(m, tree, nodes, loss, beta)
					gotKept, gotRemoved := e.Repair(m, slices.Clone(nodes), loss, beta)
					if gotRemoved != wantRemoved || !slices.Equal(gotKept, wantKept) {
						t.Errorf("%s: Repair kept %v after %d removals, reference %v after %d",
							label, gotKept, gotRemoved, wantKept, wantRemoved)
					}
					mostRemoved = max(mostRemoved, gotRemoved)
					if len(gotKept) == 1 {
						singles++
					}
				}
			}
		}
	}
	if mostRemoved < 3 || singles == 0 {
		t.Errorf("corpus too easy: at most %d removals, %d single survivors", mostRemoved, singles)
	}
}
