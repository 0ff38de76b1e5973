package coloring

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

func TestConflictFree(t *testing.T) {
	m := sinr.Default()
	// Three requests: 0 and 1 share node coordinate x=1 (requests (0,1)
	// and (2,3) with coords 1 and 1), request 2 far away.
	l, err := geom.NewLine([]float64{0, 1, 1, 2, 100, 101})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	eng := affect.NewDirect(m, sinr.Bidirectional, in, power.Powers(m, in, power.Sqrt()))
	got := conflictFree(eng, []int{0, 1, 2})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("conflictFree = %v, want [0 2]", got)
	}
	// Order matters: starting from 1 keeps 1 and drops 0.
	got = conflictFree(eng, []int{1, 0, 2})
	if len(got) != 2 || got[0] != 1 {
		t.Errorf("conflictFree = %v, want [1 2]", got)
	}
	if got := conflictFree(eng, nil); got != nil {
		t.Errorf("conflictFree(nil) = %v", got)
	}
}

func TestLPOptionsKappa(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(3)), 30, 200, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, kappa := range []float64{1, 4, 16} {
		s, _, err := SqrtLPColoringOpts(m, in, rand.New(rand.NewSource(1)), LPOptions{Kappa: kappa})
		if err != nil {
			t.Fatalf("kappa=%g: %v", kappa, err)
		}
		if err := m.CheckSchedule(in, sinr.Bidirectional, s); err != nil {
			t.Errorf("kappa=%g: invalid schedule: %v", kappa, err)
		}
	}
}

func TestLPOptionsDisableMaximality(t *testing.T) {
	m := sinr.Default()
	in, err := instance.Clustered(rand.New(rand.NewSource(5)), 40, 4, 15, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	on, _, err := SqrtLPColoringOpts(m, in, rand.New(rand.NewSource(1)), LPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := SqrtLPColoringOpts(m, in, rand.New(rand.NewSource(1)), LPOptions{DisableMaximality: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, off); err != nil {
		t.Errorf("maximality-off schedule invalid: %v", err)
	}
	if off.NumColors() < on.NumColors() {
		t.Errorf("maximality off (%d colors) beat maximality on (%d colors)",
			off.NumColors(), on.NumColors())
	}
}

// TestPackingLPReadsEngine pins the LP matrix against its engine: one U
// row and one V row per candidate, in cand order, with a zero diagonal.
// Over the exact engines every entry is bitwise the model's affectance;
// over the sparse engine no entry falls below it.
func TestPackingLPReadsEngine(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(4)), 200, 400, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	grid, err := sparse.New(m, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	// Candidates out of index order, so a column read by request index
	// instead of by position in cand shows.
	cand := rand.New(rand.NewSource(1)).Perm(in.N())[:80]
	relax := math.Pow(2, m.Alpha)
	for _, tc := range []struct {
		name  string
		eng   affect.Engine
		exact bool
	}{
		{"dense", affect.EngineOf(affect.New(m, sinr.Bidirectional, in, powers)), true},
		{"direct", affect.NewDirect(m, sinr.Bidirectional, in, powers), true},
		{"sparse", grid, false},
	} {
		p := packingLP(m, in, tc.eng, cand)
		if len(p.C) != len(cand) || len(p.A) != 2*len(cand) || len(p.B) != 2*len(cand) {
			t.Fatalf("%s: LP is %d×%d with %d bounds, want %d×%d", tc.name, len(p.A), len(p.C), len(p.B), 2*len(cand), len(cand))
		}
		above := 0
		for a, j := range cand {
			if p.C[a] != 1 {
				t.Errorf("%s: objective[%d] = %g, want 1", tc.name, a, p.C[a])
			}
			for side, w := range []int{in.Reqs[j].U, in.Reqs[j].V} {
				r := 2*a + side
				if want := relax * budget(m, in, j); p.B[r] != want {
					t.Errorf("%s: bound of row %d = %g, want %g", tc.name, r, p.B[r], want)
				}
				for b, j2 := range cand {
					got := p.A[r][b]
					if b == a {
						if got != 0 {
							t.Errorf("%s: diagonal of row %d = %g", tc.name, r, got)
						}
						continue
					}
					want := powers[j2] / m.MinLossToNode(in, j2, w)
					switch {
					case tc.exact && math.Float64bits(got) != math.Float64bits(want):
						t.Errorf("%s: A[%d][%d] = %v, want %v bitwise", tc.name, r, b, got, want)
					case got < want:
						t.Errorf("%s: A[%d][%d] = %v below the affectance %v", tc.name, r, b, got, want)
					case got > want:
						above++
					}
				}
			}
		}
		if !tc.exact && above == 0 {
			t.Errorf("%s: every entry exact; the instance needs far pairs", tc.name)
		}
	}
}

func TestRepairBudgetEnforcesBudgets(t *testing.T) {
	m := sinr.Default()
	// Densely packed equal pairs: the full set blows every budget, repair
	// must shrink it to one that fits.
	in, err := instance.LineChain(12, 1, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	all := make([]int, in.N())
	for i := range all {
		all[i] = i
	}
	picked := repairBudget(m, in, affect.NewDirect(m, sinr.Bidirectional, in, powers), nil, all)
	if len(picked) == 0 {
		t.Fatal("repair removed everything")
	}
	for _, j := range picked {
		b := 2 * budget(m, in, j)
		iu := m.BidirectionalInterference(in, powers, picked, in.Reqs[j].U, j)
		iv := m.BidirectionalInterference(in, powers, picked, in.Reqs[j].V, j)
		if iu > b || iv > b {
			t.Errorf("request %d exceeds its budget after repair", j)
		}
	}
}

func TestCandidatesWithinBudgetExcludesOverloaded(t *testing.T) {
	m := sinr.Default()
	in, err := instance.LineChain(3, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	// With the middle request already selected, its direct neighbors sit at
	// distance 0.5 and receive interference 1/0.5^α = 8, far above their
	// budget of 1/(β·√ℓ) = 1.
	got := candidatesWithinBudget(m, in, affect.NewDirect(m, sinr.Bidirectional, in, powers), []int{1}, []int{0, 2})
	if len(got) != 0 {
		t.Errorf("neighbors of a selected request at gap 0.5 should be over budget, got %v", got)
	}
	// Far-away requests stay eligible.
	far, err := instance.LineChain(2, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	farPowers := power.Powers(m, far, power.Sqrt())
	got = candidatesWithinBudget(m, far, affect.NewDirect(m, sinr.Bidirectional, far, farPowers), []int{0}, []int{1})
	if len(got) != 1 {
		t.Errorf("distant request should stay within budget, got %v", got)
	}
}

func TestMaxFeasibleSubsetLP(t *testing.T) {
	m := sinr.Default()
	in, err := instance.NestedExponential(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := MaxFeasibleSubsetLP(m, in, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("empty LP subset")
	}
	powers := power.Powers(m, in, power.Sqrt())
	if !m.SetFeasible(in, sinr.Bidirectional, powers, set) {
		t.Error("LP subset infeasible at full gain")
	}
	// On the nested chain the LP subset should capture a constant fraction
	// like the greedy one (paper intro claim).
	if len(set) < 24/5 {
		t.Errorf("LP subset %d below a constant fraction of 24", len(set))
	}
	if _, err := MaxFeasibleSubsetLP(m, in, nil); err == nil {
		t.Error("nil rng should fail")
	}
}
