package treestar

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/affect/sparse"
	"repro/internal/geom"
	"repro/internal/hst"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// pathTree builds a path 0-1-...-(n-1) with unit edges.
func pathTree(t *testing.T, n int) *geom.Tree {
	t.Helper()
	tr, err := geom.NewTree(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := tr.AddEdge(i-1, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// lineHST embeds n unit-spaced points on a line in a random HST.
func lineHST(t *testing.T, n int, seed int64) *hst.Embedding {
	t.Helper()
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = float64(i)
	}
	l, err := geom.NewLine(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := hst.Build(l, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fullComp builds the compID/pos stamp arrays marking every node of the
// tree as one component with id 1, matching the helpers' calling
// convention inside SelectOnTreeCtx.
func fullComp(n int) (nodes []int, compID, pos []int32) {
	nodes = make([]int, n)
	compID = make([]int32, n)
	pos = make([]int32, n)
	for i := range nodes {
		nodes[i] = i
		compID[i] = 1
		pos[i] = int32(i)
	}
	return nodes, compID, pos
}

func TestCentroidOfPath(t *testing.T) {
	tr := pathTree(t, 7)
	nodes, compID, pos := fullComp(7)
	c := centroid(tr, nodes, compID, 1, pos)
	if c != 3 {
		t.Errorf("centroid of a 7-path = %d, want 3", c)
	}
}

func TestCentroidOfStar(t *testing.T) {
	tr, err := geom.NewTree(6)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := 1; leaf < 6; leaf++ {
		if err := tr.AddEdge(0, leaf, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Finalize(); err != nil {
		t.Fatal(err)
	}
	nodes, compID, pos := fullComp(6)
	if c := centroid(tr, nodes, compID, 1, pos); c != 0 {
		t.Errorf("centroid of a star = %d, want the hub 0", c)
	}
}

// TestCentroidBalancedProperty: the centroid splits any random tree into
// components of at most half the size.
func TestCentroidBalancedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		tr, err := geom.NewTree(n)
		if err != nil {
			return false
		}
		for v := 1; v < n; v++ {
			if err := tr.AddEdge(r.Intn(v), v, 1+r.Float64()); err != nil {
				return false
			}
		}
		if err := tr.Finalize(); err != nil {
			return false
		}
		nodes, compID, pos := fullComp(n)
		c := centroid(tr, nodes, compID, 1, pos)
		for _, comp := range componentsWithout(tr, nodes, compID, 1, pos, c) {
			if len(comp) > n/2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestComponentsWithout(t *testing.T) {
	tr := pathTree(t, 5)
	nodes, compID, pos := fullComp(5)
	comps := componentsWithout(tr, nodes, compID, 1, pos, 2)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	sizes := map[int]bool{len(comps[0]): true, len(comps[1]): true}
	if !sizes[2] {
		t.Errorf("component sizes = %d, %d; want 2 and 2", len(comps[0]), len(comps[1]))
	}
}

func TestSelectOnTreePostcondition(t *testing.T) {
	m := sinr.Default()
	tr := lineHST(t, 32, 1)
	terminals := make([]int, 0, 16)
	loss := make(map[int]float64)
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < 32; v += 2 {
		terminals = append(terminals, v)
		loss[v] = 0.5 + rng.Float64()*8
	}
	betaPrime := 1.0
	beta := 0.05
	kept, stats, err := SelectOnTree(m, tr, terminals, loss, betaPrime, beta, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 {
		t.Fatal("empty selection")
	}
	if stats.Levels < 2 {
		t.Errorf("levels = %d, want ≥ 2 on a 32-leaf HST", stats.Levels)
	}
	// Verify beta-feasibility under √ℓ in the HST metric.
	for _, u := range kept {
		var interf float64
		for _, v := range kept {
			if v != u {
				interf += math.Sqrt(loss[v]) / m.Loss(tr.Dist(u, v))
			}
		}
		signal := 1 / math.Sqrt(loss[u])
		if signal < beta*interf*(1-1e-9) {
			t.Errorf("terminal %d violates the gain: signal %g, β·I %g", u, signal, beta*interf)
		}
	}
}

func TestSelectOnTreeValidation(t *testing.T) {
	m := sinr.Default()
	tr := lineHST(t, 4, 1)
	if _, _, err := SelectOnTree(m, tr, nil, nil, 1, 1, TreeOptions{}); err == nil {
		t.Error("no terminals should fail")
	}
	if _, _, err := SelectOnTree(m, tr, []int{0}, map[int]float64{}, 1, 1, TreeOptions{}); err == nil {
		t.Error("missing loss should fail")
	}
}

func TestPipelineRunFeasibleClass(t *testing.T) {
	m := sinr.Default()
	rng := rand.New(rand.NewSource(8))
	in, err := instance.UniformRandom(rng, 24, 200, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	class, stats, err := (Pipeline{}).Run(m, in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(class) == 0 {
		t.Fatal("empty class")
	}
	powers := power.Powers(m, in, power.Sqrt())
	if !m.SetFeasible(in, sinr.Bidirectional, powers, class) {
		t.Error("pipeline class infeasible at full gain")
	}
	if stats.ActiveNodes != 48 {
		t.Errorf("active nodes = %d, want 48", stats.ActiveNodes)
	}
	if stats.FinalPairs != len(class) {
		t.Errorf("stats.FinalPairs = %d, class = %d", stats.FinalPairs, len(class))
	}
}

func TestPipelineSingleRequest(t *testing.T) {
	m := sinr.Default()
	rng := rand.New(rand.NewSource(9))
	in, err := instance.UniformRandom(rng, 1, 50, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	class, _, err := (Pipeline{}).Run(m, in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(class) != 1 || class[0] != 0 {
		t.Errorf("class = %v, want [0]", class)
	}
}

func TestPipelineColoringValid(t *testing.T) {
	m := sinr.Default()
	rng := rand.New(rand.NewSource(10))
	in, err := instance.UniformRandom(rng, 20, 150, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := (Pipeline{}).Coloring(m, in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Fatal("incomplete schedule")
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, s); err != nil {
		t.Errorf("invalid pipeline schedule: %v", err)
	}
}

func TestPipelineNilRNG(t *testing.T) {
	m := sinr.Default()
	in, err := instance.NestedExponential(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (Pipeline{}).Run(m, in, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// TestPipelineValidityProperty: pipeline classes are always feasible at the
// full gain, across random workloads.
func TestPipelineValidityProperty(t *testing.T) {
	m := sinr.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, err := instance.UniformRandom(r, 4+r.Intn(16), 120, 1, 5)
		if err != nil {
			return false
		}
		class, _, err := (Pipeline{}).Run(m, in, r)
		if err != nil || len(class) == 0 {
			return false
		}
		powers := power.Powers(m, in, power.Sqrt())
		return m.SetFeasible(in, sinr.Bidirectional, powers, class)
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(81))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPipelineFaithfulMode exercises the worst-case parameterized star
// selection end to end: classes stay feasible, just smaller than the
// default light mode (documented in E14).
func TestPipelineFaithfulMode(t *testing.T) {
	m := sinr.Default()
	rng := rand.New(rand.NewSource(11))
	in, err := instance.UniformRandom(rng, 16, 150, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	class, stats, err := (Pipeline{Faithful: true}).Run(m, in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(class) == 0 {
		t.Fatal("empty class")
	}
	powers := power.Powers(m, in, power.Sqrt())
	if !m.SetFeasible(in, sinr.Bidirectional, powers, class) {
		t.Error("faithful pipeline class infeasible")
	}
	if stats.Tree.StarCalls == 0 {
		t.Error("faithful mode made no star calls")
	}
}

// TestSelectOnTreeFaithfulPostcondition: the faithful option keeps the
// feasibility postcondition on the HST metric.
func TestSelectOnTreeFaithfulPostcondition(t *testing.T) {
	m := sinr.Default()
	tr := lineHST(t, 16, 2)
	terminals := make([]int, 0, 8)
	loss := make(map[int]float64)
	rng := rand.New(rand.NewSource(12))
	for v := 0; v < 16; v += 2 {
		terminals = append(terminals, v)
		loss[v] = 0.5 + rng.Float64()*4
	}
	kept, _, err := SelectOnTree(m, tr, terminals, loss, 1.0, 0.02, TreeOptions{Faithful: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range kept {
		var interf float64
		for _, v := range kept {
			if v != u {
				interf += math.Sqrt(loss[v]) / m.Loss(tr.Dist(u, v))
			}
		}
		if 1/math.Sqrt(loss[u]) < 0.02*interf*(1-1e-9) {
			t.Errorf("terminal %d violates the target gain", u)
		}
	}
}

// TestPipelineEngineHook pins the stage-5 CacheBuilder contract: the hook
// is consulted for every restricted instance whose kept set is large
// enough, receives (sub-)instances it must cover, and its errors abort
// the run. A sparse-engine hook must still yield schedules the exact
// oracle accepts.
func TestPipelineEngineHook(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(5)), 80, 200, 1, 6)
	if err != nil {
		t.Fatal(err)
	}

	var calls int
	sparseHook := func(mm sinr.Model, sub *problem.Instance, powers []float64) (sinr.Cache, error) {
		calls++
		return sparse.New(mm, sinr.Bidirectional, sub, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	}
	s, err := Pipeline{Engine: sparseHook}.Coloring(m, in, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("engine hook never consulted at n=80")
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, s); err != nil {
		t.Errorf("sparse-hook schedule fails the exact oracle: %v", err)
	}

	wantErr := errors.New("engine build failed")
	_, err = Pipeline{Engine: func(sinr.Model, *problem.Instance, []float64) (sinr.Cache, error) {
		return nil, wantErr
	}}.Coloring(m, in, rand.New(rand.NewSource(2)))
	if !errors.Is(err, wantErr) {
		t.Errorf("hook error not propagated: %v", err)
	}
}

// TestSelectOnTreeCtxCanceled: a canceled context aborts the selection at
// the next recursion level with the context's error.
func TestSelectOnTreeCtxCanceled(t *testing.T) {
	m := sinr.Default()
	tr := lineHST(t, 32, 1)
	terminals := make([]int, 0, 16)
	loss := make(map[int]float64)
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < 32; v += 2 {
		terminals = append(terminals, v)
		loss[v] = 0.5 + rng.Float64()*8
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SelectOnTreeCtx(ctx, m, tr, terminals, loss, 1.0, 0.05, TreeOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestColoringCanceled: ColoringWithStats under an already-canceled
// context returns the context's error instead of a schedule.
func TestColoringCanceled(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(13)), 20, 150, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (Pipeline{}).ColoringWithStats(ctx, m, in, rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestColoringDeterministicAcrossGOMAXPROCS: the per-class rng split and
// the deterministic merges keep the full coloring bitwise identical no
// matter how many workers the pools run (satellite of the scale PR).
func TestColoringDeterministicAcrossGOMAXPROCS(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(21)), 48, 200, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) *problem.Schedule {
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
		s, err := (Pipeline{}).Coloring(m, in, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := solve(1), solve(4)
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatalf("Colors[%d]: GOMAXPROCS=1 gives %d, GOMAXPROCS=4 gives %d", i, a.Colors[i], b.Colors[i])
		}
		if a.Powers[i] != b.Powers[i] {
			t.Fatalf("Powers[%d] differs across GOMAXPROCS", i)
		}
	}
}
