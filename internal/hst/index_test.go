package hst

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// hidden wraps a metric behind a plain Metric, hiding its coordinates:
// geom.Coords rejects it, so every computation over it takes the
// all-pairs scans, with the same distances as the wrapped metric.
type hidden struct{ geom.Metric }

// indexCase is one metric of the pruning equivalence tests.
type indexCase struct {
	name  string
	space geom.Metric
}

func mustEuclidean(tb testing.TB, pts [][]float64) *geom.Euclidean {
	e, err := geom.NewEuclidean(pts)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func mustLine(tb testing.TB, xs []float64) *geom.Line {
	l, err := geom.NewLine(xs)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// uniformPoints draws n points uniformly in [0, side)^dim.
func uniformPoints(rng *rand.Rand, n, dim int, side float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for k := range pts[i] {
			pts[i][k] = rng.Float64() * side
		}
	}
	return pts
}

// clusteredPoints draws n points in k tight balls scattered over
// [0, side)^dim.
func clusteredPoints(rng *rand.Rand, n, k, dim int, side, radius float64) [][]float64 {
	centers := uniformPoints(rng, k, dim, side)
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(k)]
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = c[j] + (2*rng.Float64()-1)*radius
		}
	}
	return pts
}

// indexCases covers the shapes the cell index must handle exactly:
// uniform and clustered points in one to three dimensions, integer
// lattices (many exactly equal distances), points scaled by 2^±100,
// coordinates spread over 2^±100 (an aspect ratio that leaves the scans
// in place), line metrics, and Sub views of both kinds.
func indexCases(tb testing.TB) []indexCase {
	rng := rand.New(rand.NewSource(20))
	var lattice2, lattice3 [][]float64
	for x := 0; x < 24; x++ {
		for y := 0; y < 24; y++ {
			lattice2 = append(lattice2, []float64{float64(x), float64(y)})
		}
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				lattice3 = append(lattice3, []float64{float64(3 * x), float64(3 * y), float64(3 * z)})
			}
		}
	}
	spread := make([][]float64, 300)
	for i := range spread {
		spread[i] = []float64{
			math.Ldexp(2*rng.Float64()-1, rng.Intn(201)-100),
			math.Ldexp(2*rng.Float64()-1, rng.Intn(201)-100),
		}
	}
	lineXs := make([]float64, 700)
	for i := range lineXs {
		lineXs[i] = rng.Float64() * 1000
	}
	chainXs := make([]float64, 0, 800)
	for i := 0; i < 400; i++ {
		chainXs = append(chainXs, float64(3*i), float64(3*i+1))
	}
	scaled := func(pts [][]float64, f float64) [][]float64 {
		for _, p := range pts {
			for k := range p {
				p[k] *= f
			}
		}
		return pts
	}
	plane := mustEuclidean(tb, uniformPoints(rng, 900, 2, 300))
	line := mustLine(tb, lineXs)
	every3 := func(n int) []int {
		var nodes []int
		for i := 0; i < n; i += 3 {
			nodes = append(nodes, i)
		}
		return nodes
	}
	planeSub, err := geom.NewSub(plane, every3(plane.N()))
	if err != nil {
		tb.Fatal(err)
	}
	lineSub, err := geom.NewSub(line, every3(line.N()))
	if err != nil {
		tb.Fatal(err)
	}
	return []indexCase{
		{"uniform-1d", mustEuclidean(tb, uniformPoints(rng, 500, 1, 500))},
		{"uniform-2d", mustEuclidean(tb, uniformPoints(rng, 700, 2, 300))},
		{"uniform-3d", mustEuclidean(tb, uniformPoints(rng, 700, 3, 100))},
		{"clustered-1d", mustEuclidean(tb, clusteredPoints(rng, 400, 20, 1, 2000, 5))},
		{"clustered-2d", mustEuclidean(tb, clusteredPoints(rng, 600, 30, 2, 300, 10))},
		{"clustered-3d", mustEuclidean(tb, clusteredPoints(rng, 600, 30, 3, 300, 10))},
		{"lattice-2d", mustEuclidean(tb, lattice2)},
		{"lattice-3d", mustEuclidean(tb, lattice3)},
		{"scaled-2^100", mustEuclidean(tb, scaled(uniformPoints(rng, 500, 2, 1), 0x1p100))},
		{"scaled-2^-100", mustEuclidean(tb, scaled(uniformPoints(rng, 500, 3, 1), 0x1p-100))},
		{"spread-2^±100", mustEuclidean(tb, spread)},
		{"line", line},
		{"line-lattice", mustLine(tb, chainXs)},
		{"sub-2d", planeSub},
		{"sub-line", lineSub},
	}
}

// TestCellIndexMatchesScan pins the exact pruning: an ensemble built over
// a metric with coordinates (cell index) and one built from the same rng
// over the same metric with its coordinates hidden (all-pairs scans)
// agree bitwise in every level, radius and scale, every core, the best
// core trees, the good-tree fractions and the metric extremes.
func TestCellIndexMatchesScan(t *testing.T) {
	cases := indexCases(t)
	if !testing.Short() {
		// BestCoreTreeSampled samples at 4096 nodes and more.
		rng := rand.New(rand.NewSource(21))
		cases = append(cases, indexCase{"uniform-2d-4200", mustEuclidean(t, uniformPoints(rng, 4200, 2, 450))})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compareWithScan(t, c.space, 0)
		})
		// A tight stretch bound gives a finer stretch index.
		switch c.name {
		case "uniform-2d", "lattice-2d", "line":
			t.Run(c.name+"/bound=6", func(t *testing.T) {
				compareWithScan(t, c.space, 6)
			})
		}
	}
}

// compareWithScan builds the ensemble over space and over its hidden
// copy at the stretch bound (0 for the default) and compares them.
func compareWithScan(t *testing.T, space geom.Metric, bound float64) {
	n := space.N()
	trees := 4
	if n >= coreSampleThreshold {
		trees = 3
	}
	if got, want := geom.MinDist(space), geom.MinDist(hidden{space}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MinDist = %v, scan %v", got, want)
	}
	if got, want := geom.MaxDist(space), geom.MaxDist(hidden{space}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MaxDist = %v, scan %v", got, want)
	}
	idx, err := BuildEnsemble(space, trees, bound, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := BuildEnsemble(hidden{space}, trees, bound, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Trees {
		a, b := idx.Trees[i], scan.Trees[i]
		if !reflect.DeepEqual(a.level, b.level) {
			t.Fatalf("tree %d: levels differ", i)
		}
		if !reflect.DeepEqual(a.radii, b.radii) || math.Float64bits(a.b) != math.Float64bits(b.b) {
			t.Fatalf("tree %d: radii or scale differ", i)
		}
		if got, want := idx.Core(i), scan.Core(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("tree %d: core of %d nodes, scan %d", i, len(got), len(want))
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	half := all[:n/2]
	for _, set := range [][]int{all, half} {
		ti, ci := idx.BestCoreTree(set)
		ts, cs := scan.BestCoreTree(set)
		if ti != ts || !reflect.DeepEqual(ci, cs) {
			t.Fatalf("BestCoreTree(%d nodes) = tree %d covering %d, scan tree %d covering %d", len(set), ti, len(ci), ts, len(cs))
		}
		ti, ci = idx.BestCoreTreeSampled(set, rand.New(rand.NewSource(8)))
		ts, cs = scan.BestCoreTreeSampled(set, rand.New(rand.NewSource(8)))
		if ti != ts || !reflect.DeepEqual(ci, cs) {
			t.Fatalf("BestCoreTreeSampled(%d nodes) = tree %d covering %d, scan tree %d covering %d", len(set), ti, len(ci), ts, len(cs))
		}
	}
	for v := 0; v < n; v += 1 + n/500 {
		if got, want := idx.GoodTreeFraction(v), scan.GoodTreeFraction(v); got != want {
			t.Fatalf("GoodTreeFraction(%d) = %v, scan %v", v, got, want)
		}
	}
}

// TestCellIndexEngages guards the equivalence test against comparing the
// scans with themselves: on the plain uniform cases the stretch scans
// and the level assignment do run on the index.
func TestCellIndexEngages(t *testing.T) {
	for _, c := range indexCases(t) {
		switch c.name {
		case "uniform-2d", "uniform-3d", "scaled-2^100", "scaled-2^-100", "sub-2d", "line":
		default:
			continue
		}
		en, err := BuildEnsemble(c.space, 2, 0, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if en.Trees[0].stretchCells(en.StretchBound) == nil {
			t.Errorf("%s: the stretch scans did not take the cell index", c.name)
		}
		tree := en.Trees[0]
		cl := claimer{dist: geom.DistFunc(c.space), perm: rand.New(rand.NewSource(1)).Perm(c.space.N()),
			pos: make([]int, c.space.N()), center: make([]int, c.space.N()), cells: geom.NewCells(c.space)}
		engaged := false
		for i := len(tree.radii) - 2; i >= 0 && tree.radii[i] >= geom.MinDist(c.space); i-- {
			cl.probe(tree.radii[i])
			engaged = engaged || (len(cl.open) >= minOpen && cl.cells.Bucket(cl.open, tree.radii[i]))
			cl.claim(tree.radii[i])
		}
		if !engaged {
			t.Errorf("%s: no level took the center-first search", c.name)
		}
	}
}

// TestCenterFirstMatchesScan runs the level assignment at radii equal to
// exact lattice distances, so nodes sit exactly at radius r from their
// candidate centers, and compares it with the resumed scans level by
// level. The line runs to 2000, so that an edge even 0.1% short of the
// radius splits a pair at the radius two cells apart.
func TestCenterFirstMatchesScan(t *testing.T) {
	var pts [][]float64
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			pts = append(pts, []float64{float64(x), float64(y)})
		}
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, space := range []geom.Metric{mustEuclidean(t, pts), mustLine(t, xs)} {
		n := space.N()
		perm := rand.New(rand.NewSource(3)).Perm(n)
		newClaimer := func(cells *geom.Cells) claimer {
			return claimer{dist: geom.DistFunc(space), perm: perm, pos: make([]int, n), center: make([]int, n), cells: cells}
		}
		idx, scan := newClaimer(geom.NewCells(space)), newClaimer(nil)
		for _, r := range []float64{20, 13, 10, 8, 5, 4, math.Sqrt2 * 2, 2, math.Sqrt2, 1} {
			idx.level(r)
			scan.level(r)
			if !reflect.DeepEqual(idx.center, scan.center) || !reflect.DeepEqual(idx.pos, scan.pos) {
				t.Fatalf("%d nodes, r = %v: centers differ from the scan", n, r)
			}
		}
	}
}
