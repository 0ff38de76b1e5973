package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCoords(t *testing.T) {
	plane, _ := NewEuclidean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	line, _ := NewLine([]float64{7, 8, 9})
	four, _ := NewEuclidean([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	mat, _ := NewMatrix([][]float64{{0, 1}, {1, 0}})
	star, _ := NewStar([]float64{1, 2})
	planeSub, _ := NewSub(plane, []int{2, 0})
	lineSub, _ := NewSub(line, []int{1, 2})
	subSub, _ := NewSub(planeSub, []int{1})
	matSub, _ := NewSub(mat, []int{1})
	for _, c := range []struct {
		name string
		m    Metric
		flat []float64
		dim  int
	}{
		{"euclidean", plane, []float64{1, 2, 3, 4, 5, 6}, 2},
		{"line", line, []float64{7, 8, 9}, 1},
		{"sub of euclidean", planeSub, []float64{5, 6, 1, 2}, 2},
		{"sub of line", lineSub, []float64{8, 9}, 1},
		{"sub of sub", subSub, []float64{1, 2}, 2},
		{"4-d euclidean", four, nil, 0},
		{"matrix", mat, nil, 0},
		{"star", star, nil, 0},
		{"sub of matrix", matSub, nil, 0},
	} {
		flat, dim, ok := Coords(c.m)
		if ok != (c.flat != nil) || dim != c.dim || len(flat) != len(c.flat) {
			t.Errorf("%s: Coords = %v, %d, %v; want %v, %d", c.name, flat, dim, ok, c.flat, c.dim)
			continue
		}
		for i := range flat {
			if flat[i] != c.flat[i] {
				t.Errorf("%s: Coords = %v, want %v", c.name, flat, c.flat)
				break
			}
		}
	}
}

// cellCase is a point set on which the grid must keep every pair within
// reach; spread is true for sets whose aspect ratio leaves no grid that
// pays, where only the callers' scans run.
type cellCase struct {
	m      Metric
	spread bool
}

// cellCases: uniform points in one to three dimensions, integer lattices
// (pairs exactly at the reach, nodes exactly on cell boundaries; the
// line runs to 3000 so that an edge even 0.1% short of the reach splits
// a pair at the reach two cells apart), points
// scaled by 2^±100 or offset by 2^40, coordinates spread over 2^±100, a
// line with coincident nodes, and a Sub view.
func cellCases(t *testing.T) map[string]cellCase {
	rng := rand.New(rand.NewSource(5))
	uniform := func(n, dim int, side, offset float64) Metric {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for k := range pts[i] {
				pts[i][k] = offset + rng.Float64()*side
			}
		}
		e, err := NewEuclidean(pts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var lattice [][]float64
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			lattice = append(lattice, []float64{float64(x), float64(y)})
		}
	}
	spread := make([][]float64, 400)
	for i := range spread {
		spread[i] = []float64{math.Ldexp(rng.Float64(), rng.Intn(201)-100), math.Ldexp(rng.Float64(), rng.Intn(201)-100)}
	}
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i / 2 * 3) // pairs of coincident nodes, 3 apart
	}
	ints := make([]float64, 3000)
	for i := range ints {
		ints[i] = float64(i)
	}
	lat, _ := NewEuclidean(lattice)
	intLine, _ := NewLine(ints)
	spr, _ := NewEuclidean(spread)
	line, _ := NewLine(xs)
	var every7 []int
	for i := 0; i < 900; i += 7 {
		every7 = append(every7, i)
	}
	sub, _ := NewSub(uniform(900, 2, 100, 0), every7)
	return map[string]cellCase{
		"uniform-1d":    {m: uniform(500, 1, 1000, 0)},
		"uniform-2d":    {m: uniform(800, 2, 100, 0)},
		"uniform-3d":    {m: uniform(800, 3, 100, 0)},
		"lattice":       {m: lat},
		"lattice-line":  {m: intLine},
		"scaled-2^100":  {m: uniform(500, 2, 0x1p100, 0)},
		"scaled-2^-100": {m: uniform(500, 2, 0x1p-100, 0)},
		"offset-2^40":   {m: uniform(500, 2, 100, 0x1p40)},
		"spread-2^±100": {m: spr, spread: true},
		"line":          {m: line},
		"sub":           {m: sub},
	}
}

// TestCellsNearKeepsPairsWithinReach checks the pruning contract
// directly: for every node p of the metric, bucketed or not, every
// bucketed node within reach of p under the metric's own distance lies
// in the ranges Near returns.
func TestCellsNearKeepsPairsWithinReach(t *testing.T) {
	for name, cc := range cellCases(t) {
		m := cc.m
		dist := DistFunc(m)
		n := m.N()
		half := make([]int32, 0, n/2)
		for u := 0; u < n; u += 2 {
			half = append(half, int32(u))
		}
		c := NewCells(m)
		bucketed := 0
		scale := MaxDist(m)
		for _, reach := range []float64{0.5, 1, 2, 3, math.Sqrt2, 4.5, 10, MinDist(m), scale / 300, scale / 30, scale / 10} {
			for _, nodes := range [][]int32{nil, half} {
				if !c.Bucket(nodes, reach) {
					continue
				}
				bucketed++
				in := make([]bool, n)
				for u := range in {
					in[u] = nodes == nil || u%2 == 0
				}
				var rows [9][2]int32
				seen := make([]bool, n)
				for p := 0; p < n; p++ {
					clear(seen)
					for _, rg := range rows[:c.Near(p, &rows)] {
						for s := rg[0]; s < rg[1]; s++ {
							seen[c.Node(int(s))] = true
						}
					}
					for u := 0; u < n; u++ {
						if in[u] && !seen[u] && dist(p, u) <= reach {
							t.Fatalf("%s, reach %v: node %d at %v from %d missing from Near", name, reach, u, dist(p, u), p)
						}
					}
				}
			}
		}
		if bucketed == 0 && !cc.spread {
			t.Errorf("%s: no reach gave a grid", name)
		}
	}
}

// TestCellsExtremesMatchScan pins MinDist and MaxDist to the all-pairs
// scan, bitwise, and checks that the grid path ran where it pays.
func TestCellsExtremesMatchScan(t *testing.T) {
	for name, cc := range cellCases(t) {
		m := cc.m
		dist := DistFunc(m)
		lo, hi := math.Inf(1), 0.0
		for i := 0; i < m.N(); i++ {
			for j := i + 1; j < m.N(); j++ {
				d := dist(i, j)
				lo, hi = min(lo, d), max(hi, d)
			}
		}
		if got := MinDist(m); math.Float64bits(got) != math.Float64bits(lo) {
			t.Errorf("%s: MinDist = %v, scan %v", name, got, lo)
		}
		if got := MaxDist(m); math.Float64bits(got) != math.Float64bits(hi) {
			t.Errorf("%s: MaxDist = %v, scan %v", name, got, hi)
		}
		if cc.spread {
			continue
		}
		if _, ok := NewCells(m).minDist(dist); !ok {
			t.Errorf("%s: MinDist did not take the grid", name)
		}
		if _, ok := NewCells(m).maxDist(dist); !ok {
			t.Errorf("%s: MaxDist did not take the grid", name)
		}
	}
}

// TestCellsDeclineWithoutPayoff: a grid that cannot prune or cannot be
// exact is refused, and the callers scan.
func TestCellsDeclineWithoutPayoff(t *testing.T) {
	// A tight core with one far-out node: every cell pair is adjacent
	// around the core, so the grid would test every pair.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[99] = 1e6
	l, _ := NewLine(xs)
	if NewCells(l).Bucket(nil, 3e5) {
		t.Error("grid accepted with every pair in adjacent cells")
	}
	inf, _ := NewLine([]float64{0, 1, math.Inf(1)})
	if NewCells(inf).Bucket(nil, 1) {
		t.Error("grid accepted a non-finite coordinate")
	}
	wide, _ := NewLine([]float64{0, 1, 0x1p600})
	if NewCells(wide).Bucket(nil, 1) {
		t.Error("grid accepted an extent beyond 2^500")
	}
	if NewCells(l).Bucket(nil, math.NaN()) {
		t.Error("grid accepted a NaN reach")
	}
}
