package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/affect"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// testInstances returns one uniform and one clustered instance, the two
// workload shapes the property tests sweep.
func testInstances(t *testing.T, seed int64, n int) []*problem.Instance {
	t.Helper()
	uni, err := instance.UniformRandom(rand.New(rand.NewSource(seed)), n, 120, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := instance.Clustered(rand.New(rand.NewSource(seed+1)), n, 4, 15, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []*problem.Instance{uni, clu}
}

func variants() []sinr.Variant { return []sinr.Variant{sinr.Directed, sinr.Bidirectional} }

// TestAllNearMatchesDenseBitwise builds the sparse engine with an error
// budget so tiny that every pair lands in the near regime, and checks the
// tracker agrees with the dense one bitwise on Add-sequence margins: the
// near entries are computed with the dense formulas and accumulated in
// the same member order, so even the floating-point drift matches.
func TestAllNearMatchesDenseBitwise(t *testing.T) {
	m := sinr.Default()
	for _, in := range testInstances(t, 11, 60) {
		powers := power.Powers(m, in, power.Sqrt())
		for _, v := range variants() {
			eng, err := New(m, v, in, powers, Options{Epsilon: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Entries() != in.N()*(in.N()-1) {
				t.Fatalf("%s: ε→0 engine is not all-near: %d entries of %d",
					v, eng.Entries(), in.N()*(in.N()-1))
			}
			dense := affect.New(m, v, in, powers)
			tr := eng.NewSetTracker(m, v)
			want := affect.NewTracker(m, v, dense)
			rng := rand.New(rand.NewSource(3))
			for _, i := range rng.Perm(in.N())[:in.N()/2] {
				tr.Add(i)
				want.Add(i)
			}
			for _, i := range tr.Members() {
				if tr.Margin(i) != want.Margin(i) {
					t.Fatalf("%s: all-near Margin(%d) = %g, want %g (bitwise)",
						v, i, tr.Margin(i), want.Margin(i))
				}
			}
			if tr.SetFeasible() != want.SetFeasible() {
				t.Fatalf("%s: all-near SetFeasible diverges", v)
			}
			// Removal must cancel entry for entry on the same path.
			for _, i := range tr.Members()[:tr.Len()/2] {
				tr.Remove(i)
				want.Remove(i)
			}
			for _, i := range tr.Members() {
				if got, ref := tr.Margin(i), want.Margin(i); got != ref {
					t.Fatalf("%s: post-remove Margin(%d) = %g, want %g", v, i, got, ref)
				}
			}
		}
	}
}

// TestPairBoundIsUpperBound is the load-bearing invariant: for every pair
// the engine's bound dominates the exact affectance — bitwise equal when
// near, a finite overestimate within the 1+ε budget when far.
func TestPairBoundIsUpperBound(t *testing.T) {
	m := sinr.Default()
	for _, eps := range []float64{0.5, 8, 64} {
		for _, in := range testInstances(t, 23, 80) {
			powers := power.Powers(m, in, power.Sqrt())
			for _, v := range variants() {
				eng, err := New(m, v, in, powers, Options{Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				budget := 1 + eps
				for i := 0; i < in.N(); i++ {
					for j := 0; j < in.N(); j++ {
						if i == j {
							continue
						}
						var e1, e2 float64
						if v == sinr.Directed {
							e1 = powers[j] / m.Loss(in.Space.Dist(in.Reqs[j].U, in.Reqs[i].V))
						} else {
							e1 = powers[j] / m.MinLossToNode(in, j, in.Reqs[i].U)
							e2 = powers[j] / m.MinLossToNode(in, j, in.Reqs[i].V)
						}
						b1, b2 := eng.PairBound(i, j)
						near := eng.nearPair(i, j)
						if near {
							if b1 != e1 || b2 != e2 {
								t.Fatalf("eps=%g %s: near pair (%d,%d) not exact", eps, v, i, j)
							}
							continue
						}
						if b1 < e1 || b2 < e2 {
							t.Fatalf("eps=%g %s: far bound (%d,%d) below exact: (%g,%g) < (%g,%g)",
								eps, v, i, j, b1, b2, e1, e2)
						}
						// The ε budget bounds the per-entry overestimate.
						if e1 > 0 && b1 > e1*budget*(1+1e-9) {
							t.Fatalf("eps=%g %s: far bound (%d,%d) breaks the budget: %g > (1+ε)·%g",
								eps, v, i, j, b1, e1)
						}
					}
				}
			}
		}
	}
}

// nearPair reports whether (i, j) has a stored exact entry (test hook).
func (e *Engine) nearPair(i, j int) bool { return e.findEntry(i, j) >= 0 }

// TestTrackerConservative drives a greedy fill through the sparse tracker
// at several budgets and checks that every set it accepts is feasible
// under the exact (uncached, dense-oracle) constraints, and that its
// margins never exceed the exact ones.
func TestTrackerConservative(t *testing.T) {
	m := sinr.Default()
	for _, eps := range []float64{2, 8, 32} {
		for _, in := range testInstances(t, 42, 120) {
			powers := power.Powers(m, in, power.Sqrt())
			for _, v := range variants() {
				eng, err := New(m, v, in, powers, Options{Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				var classes [][]int
				var trackers []sinr.SetTracker
				for i := 0; i < in.N(); i++ {
					placed := false
					for k, tr := range trackers {
						if tr.CanAdd(i) {
							tr.Add(i) //oblint:fresh extending a live class the tracker already holds
							classes[k] = append(classes[k], i)
							placed = true
							break
						}
					}
					if !placed {
						tr := eng.NewSetTracker(m, v)
						if !tr.CanAdd(i) {
							t.Fatalf("eps=%g %s: singleton %d rejected", eps, v, i)
						}
						tr.Add(i)
						trackers = append(trackers, tr)
						classes = append(classes, []int{i})
					}
				}
				for k, class := range classes {
					if !trackers[k].SetFeasible() {
						t.Fatalf("eps=%g %s: tracker class %d self-reports infeasible", eps, v, k)
					}
					// The dense oracle must accept every sparse-accepted set.
					if !m.SetFeasible(in, v, powers, class) {
						t.Fatalf("eps=%g %s: sparse-accepted class %d fails the dense oracle", eps, v, k)
					}
					for _, i := range class {
						exact := m.Margin(in, v, powers, class, i)
						if got := trackers[k].Margin(i); got > exact+1e-9 {
							t.Fatalf("eps=%g %s: margin(%d) = %g above exact %g", eps, v, i, got, exact)
						}
					}
				}
			}
		}
	}
}

// TestTrackerChurnAgainstFresh exercises Add/Remove/Reset cancellation:
// after a random churn the accumulators must match a freshly built
// tracker over the same final set to within floating-point drift.
func TestTrackerChurnAgainstFresh(t *testing.T) {
	m := sinr.Default()
	for _, in := range testInstances(t, 5, 90) {
		powers := power.Powers(m, in, power.Sqrt())
		for _, v := range variants() {
			eng, err := New(m, v, in, powers, Options{Epsilon: 8})
			if err != nil {
				t.Fatal(err)
			}
			tr := eng.NewSetTracker(m, v)
			rng := rand.New(rand.NewSource(99))
			active := map[int]bool{}
			for ev := 0; ev < 400; ev++ {
				i := rng.Intn(in.N())
				if active[i] {
					tr.Remove(i)
					delete(active, i)
				} else {
					tr.Add(i)
					active[i] = true
				}
			}
			fresh := eng.NewSetTracker(m, v)
			for _, i := range tr.Members() {
				fresh.Add(i)
			}
			for _, i := range tr.Members() {
				got, want := tr.Margin(i), fresh.Margin(i)
				if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
					t.Fatalf("%s: churned margin(%d) = %g, fresh = %g", v, i, got, want)
				}
			}
			// Reset must return the tracker to a reusable empty state.
			tr.Reset()
			if tr.Len() != 0 {
				t.Fatalf("%s: Reset left %d members", v, tr.Len())
			}
			for _, i := range fresh.Members() {
				tr.Add(i)
			}
			for _, i := range fresh.Members() {
				if got, want := tr.Margin(i), fresh.Margin(i); got != want {
					t.Fatalf("%s: post-Reset margin(%d) = %g, want %g", v, i, got, want)
				}
			}
		}
	}
}

// TestRemoveNonFinite pins the recompute path: two requests sharing a
// node have +Inf mutual affectance; removing one must restore finite,
// correct accumulators for the rest.
func TestRemoveNonFinite(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 0}, {0, 1}, {40, 40}, {40, 47}}
	reqs := []problem.Request{{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 4}}
	space, err := geom.NewEuclidean(pts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(space, reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	for _, v := range variants() {
		eng, err := New(m, v, in, powers, Options{Epsilon: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr := eng.NewSetTracker(m, v)
		tr.Add(0)
		tr.Add(1) // shares node 0 with request 0 → ±Inf entries
		tr.Add(2)
		if tr.SetFeasible() {
			t.Fatalf("%s: node-sharing requests cannot be co-feasible", v)
		}
		tr.Remove(1)
		fresh := eng.NewSetTracker(m, v)
		fresh.Add(0)
		fresh.Add(2)
		for _, i := range []int{0, 2} {
			got, want := tr.Margin(i), fresh.Margin(i)
			if math.IsNaN(got) || math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: post-Inf-remove margin(%d) = %g, want %g", v, i, got, want)
			}
		}
	}
}

// TestInterferenceBoundDominatesExact checks the set-query face used by
// the LP-repair budget path.
func TestInterferenceBoundDominatesExact(t *testing.T) {
	m := sinr.Default()
	in := testInstances(t, 77, 70)[0]
	powers := power.Powers(m, in, power.Sqrt())
	eng, err := New(m, sinr.Bidirectional, in, powers, Options{Epsilon: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	set := rng.Perm(in.N())[:20]
	for i := 0; i < in.N(); i++ {
		bu, bv := eng.InterferenceBound(set, i)
		eu := m.RequestInterferenceU(in, powers, set, i)
		ev := m.RequestInterferenceV(in, powers, set, i)
		if bu < eu*(1-1e-12) || bv < ev*(1-1e-12) {
			t.Fatalf("InterferenceBound(%d) = (%g,%g) below exact (%g,%g)", i, bu, bv, eu, ev)
		}
	}
}

// TestUnsupportedMetric pins the error contract for metrics without
// coordinates and the Supported predicate.
func TestUnsupportedMetric(t *testing.T) {
	d := [][]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}}
	space, err := geom.NewMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(space, []problem.Request{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if Supported(in.Space) {
		t.Fatal("matrix metric reported as grid-supported")
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	if _, err := New(m, sinr.Bidirectional, in, powers, Options{Epsilon: 8}); err == nil {
		t.Fatal("New over a matrix metric should fail")
	}
	if _, err := New(m, sinr.Bidirectional, in, powers, Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon should fail")
	}
}

// TestCovers mirrors the dense cache's acceptance rule.
func TestCovers(t *testing.T) {
	m := sinr.Default()
	in := testInstances(t, 13, 30)[0]
	powers := power.Powers(m, in, power.Sqrt())
	eng, err := New(m, sinr.Bidirectional, in, powers, Options{Epsilon: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Covers(in, m.Alpha, powers) {
		t.Fatal("engine does not cover its build arguments")
	}
	clone := append([]float64(nil), powers...)
	if !eng.Covers(in, m.Alpha, clone) {
		t.Fatal("value-equal powers rejected")
	}
	if !eng.Covers(in, m.Alpha, clone) { // a repeated query with the equal copy
		t.Fatal("repeated query with value-equal powers rejected")
	}
	different := append([]float64(nil), powers...)
	different[0] *= 2
	if eng.Covers(in, m.Alpha, different) {
		t.Fatal("different powers accepted")
	}
	if eng.Covers(in, m.Alpha+1, powers) {
		t.Fatal("wrong alpha accepted")
	}
	if eng.NewSetTracker(m, sinr.Directed) != nil {
		t.Fatal("tracker for the wrong variant should be nil")
	}
	other := sinr.Model{Alpha: m.Alpha + 1, Beta: 1}
	if eng.NewSetTracker(other, sinr.Bidirectional) != nil {
		t.Fatal("tracker for the wrong alpha should be nil")
	}
}

// TestRings pins the ε → near-radius map: monotone non-increasing in ε,
// and the all-near regime for vanishing budgets.
func TestRings(t *testing.T) {
	prev := int32(math.MaxInt32)
	for _, eps := range []float64{1e-9, 0.1, 1, 8, 64, 1e6} {
		r := rings(eps, 3, 2)
		if r < 1 {
			t.Fatalf("rings(%g) = %d < 1", eps, r)
		}
		if r > prev {
			t.Fatalf("rings not monotone at ε=%g: %d > %d", eps, r, prev)
		}
		prev = r
	}
	if r := rings(1e6, 3, 2); r != 1 {
		t.Fatalf("huge ε should reach the minimum radius, got %d", r)
	}
}
