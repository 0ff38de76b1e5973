package hst

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/problem"
)

// BenchmarkBuildEnsemble is the pipeline's stage 2 on one color class:
// BuildEnsembleObserved over the class's endpoints, then
// BestCoreTreeSampled, with the pipeline's tree count and default stretch
// bound. The uniform shapes are the first class of the benchmark's three
// workloads: 1024 nodes (paper-512), 4000 (churn-2k, exact core scoring)
// and 9000 (scale-4500, sampled scoring). They run on the cell index; the
// Matrix copy of the 1024 case and the endpoints of
// NestedExponential(300, 2) keep the all-pairs scans.
//
//	go test ./internal/hst -run '^$' -bench BuildEnsemble
func BenchmarkBuildEnsemble(b *testing.B) {
	uniform := func(n int, side float64) *problem.Instance {
		in, err := instance.UniformRandom(rand.New(rand.NewSource(1)), n, side, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
		return in
	}
	nested, err := instance.NestedExponential(300, 2)
	if err != nil {
		b.Fatal(err)
	}
	paper := uniform(512, 300)
	cases := []struct {
		name  string
		space geom.Metric
	}{
		{"n=1024", paper.Space},
		{"n=4000", uniform(2000, 300).Space},
		{"n=9000", uniform(4500, 300*math.Sqrt(4500.0/2000)).Space},
		{"n=1024-matrix", asMatrix(b, paper.Space)},
		{"nested-300", nested.Space},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			n := c.space.N()
			nodes := make([]int, n)
			for i := range nodes {
				nodes[i] = i
			}
			r := int(math.Ceil(math.Log2(float64(n)))) + 2
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				// A fresh view per solve, as the pipeline restricts the
				// space once per class.
				sub, err := geom.NewSubOwned(c.space, nodes)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(it)))
				en, err := BuildEnsembleObserved(sub, r, 0, rng, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, core := en.BestCoreTreeSampled(nodes, rng); len(core) == 0 {
					b.Fatal("empty core")
				}
			}
		})
	}
}

// asMatrix copies a metric into an explicit distance matrix, a metric
// without coordinates.
func asMatrix(tb testing.TB, m geom.Metric) *geom.Matrix {
	n := m.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = m.Dist(i, j)
		}
	}
	mat, err := geom.NewMatrix(d)
	if err != nil {
		tb.Fatal(err)
	}
	return mat
}
