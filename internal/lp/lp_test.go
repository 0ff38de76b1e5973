package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestBoxOnly(t *testing.T) {
	// No packing rows: optimum is x = 1 everywhere.
	sol := solveOK(t, Problem{C: []float64{1, 2, 3}})
	if math.Abs(sol.Value-6) > 1e-9 {
		t.Errorf("value = %g, want 6", sol.Value)
	}
	for j, x := range sol.X {
		if math.Abs(x-1) > 1e-9 {
			t.Errorf("x[%d] = %g, want 1", j, x)
		}
	}
}

func TestSingleConstraint(t *testing.T) {
	// max x1+x2 s.t. x1+x2 ≤ 1.
	sol := solveOK(t, Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}},
		B: []float64{1},
	})
	if math.Abs(sol.Value-1) > 1e-9 {
		t.Errorf("value = %g, want 1", sol.Value)
	}
}

func TestWeightedObjective(t *testing.T) {
	// max 3x1+x2 s.t. x1+x2 ≤ 1: all weight on x1.
	sol := solveOK(t, Problem{
		C: []float64{3, 1},
		A: [][]float64{{1, 1}},
		B: []float64{1},
	})
	if math.Abs(sol.Value-3) > 1e-9 {
		t.Errorf("value = %g, want 3", sol.Value)
	}
	if math.Abs(sol.X[0]-1) > 1e-9 {
		t.Errorf("x1 = %g, want 1", sol.X[0])
	}
}

func TestBindingBoxAndRow(t *testing.T) {
	// max x1+x2 s.t. 2x1+x2 ≤ 2. Optimum at x1=0.5... no: x2 ≤ 1 binds,
	// then 2x1 ≤ 1 → x1 = 0.5, value 1.5.
	sol := solveOK(t, Problem{
		C: []float64{1, 1},
		A: [][]float64{{2, 1}},
		B: []float64{2},
	})
	if math.Abs(sol.Value-1.5) > 1e-9 {
		t.Errorf("value = %g, want 1.5", sol.Value)
	}
}

func TestZeroRHSForcesZero(t *testing.T) {
	sol := solveOK(t, Problem{
		C: []float64{5},
		A: [][]float64{{1}},
		B: []float64{0},
	})
	if sol.Value != 0 {
		t.Errorf("value = %g, want 0", sol.Value)
	}
}

func TestMultipleConstraints(t *testing.T) {
	// max x1+x2+x3 s.t. x1+x2 ≤ 1, x2+x3 ≤ 1. Optimum x1=x3=1, x2=0 → 2.
	sol := solveOK(t, Problem{
		C: []float64{1, 1, 1},
		A: [][]float64{{1, 1, 0}, {0, 1, 1}},
		B: []float64{1, 1},
	})
	if math.Abs(sol.Value-2) > 1e-9 {
		t.Errorf("value = %g, want 2", sol.Value)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Problem
		want error
	}{
		{name: "no vars", p: Problem{}, want: ErrBadShape},
		{name: "rhs mismatch", p: Problem{C: []float64{1}, A: [][]float64{{1}}, B: nil}, want: ErrBadShape},
		{name: "ragged row", p: Problem{C: []float64{1, 1}, A: [][]float64{{1}}, B: []float64{1}}, want: ErrBadShape},
		{name: "negative A", p: Problem{C: []float64{1}, A: [][]float64{{-1}}, B: []float64{1}}, want: ErrNotPacking},
		{name: "negative b", p: Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}}, want: ErrNotPacking},
		{name: "NaN c", p: Problem{C: []float64{math.NaN()}}, want: ErrBadShape},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Solve(tc.p, 0)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestNegativeObjectiveEntriesAllowed(t *testing.T) {
	// Negative objective coefficients are fine: those variables stay 0.
	sol := solveOK(t, Problem{
		C: []float64{-1, 2},
		A: [][]float64{{1, 1}},
		B: []float64{10},
	})
	if math.Abs(sol.Value-2) > 1e-9 {
		t.Errorf("value = %g, want 2", sol.Value)
	}
	if sol.X[0] > 1e-9 {
		t.Errorf("x1 = %g, want 0", sol.X[0])
	}
}

// bruteForceBestSubset returns the best 0/1 objective value satisfying the
// packing constraints, by enumeration.
func bruteForceBestSubset(p Problem) float64 {
	n := len(p.C)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for r := range p.A {
			var s float64
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					s += p.A[r][j]
				}
			}
			if s > p.B[r]+1e-12 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var v float64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += p.C[j]
			}
		}
		if v > best {
			best = v
		}
	}
	return best
}

// TestLPDominatesIntegral: the fractional optimum of a packing LP is at
// least the best integral (0/1) solution, and the returned point is
// feasible. Random small instances.
func TestLPDominatesIntegral(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		rows := r.Intn(5)
		p := Problem{C: make([]float64, n), A: make([][]float64, rows), B: make([]float64, rows)}
		for j := range p.C {
			p.C[j] = r.Float64() * 3
		}
		for i := range p.A {
			p.A[i] = make([]float64, n)
			for j := range p.A[i] {
				if r.Float64() < 0.7 {
					p.A[i][j] = r.Float64() * 2
				}
			}
			p.B[i] = r.Float64() * 3
		}
		sol, err := Solve(p, 0)
		if err != nil {
			return false
		}
		// Feasibility of the returned point.
		for i := range p.A {
			var s float64
			for j := range p.A[i] {
				s += p.A[i][j] * sol.X[j]
			}
			if s > p.B[i]+1e-6 {
				return false
			}
		}
		for _, x := range sol.X {
			if x < -1e-9 || x > 1+1e-9 {
				return false
			}
		}
		return sol.Value >= bruteForceBestSubset(p)-1e-6
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIterationLimit(t *testing.T) {
	p := Problem{
		C: []float64{1, 1, 1, 1},
		A: [][]float64{{1, 1, 1, 1}},
		B: []float64{2},
	}
	if _, err := Solve(p, 1); !errors.Is(err, ErrIterationLimit) {
		t.Errorf("error = %v, want ErrIterationLimit", err)
	}
}

// TestIterationLimitCountsPivots: the limit bounds the pivots made, so a
// limit equal to the pivot count the solve needs succeeds with the same
// optimum, and one less fails.
func TestIterationLimitCountsPivots(t *testing.T) {
	for _, p := range []Problem{
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{0.5}},
		{C: []float64{1, 1, 1, 1}, A: [][]float64{{1, 1, 1, 1}}, B: []float64{2}},
		{C: []float64{3, 1, 2}, A: [][]float64{{1, 1, 0}, {0, 1, 1}}, B: []float64{1, 1.5}},
	} {
		free, err := Solve(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := free.Iterations
		exact, err := Solve(p, k)
		if err != nil {
			t.Fatalf("limit %d = pivot count: %v", k, err)
		}
		for j := range free.X {
			if math.Float64bits(exact.X[j]) != math.Float64bits(free.X[j]) {
				t.Errorf("limit %d: X[%d] = %g, want %g", k, j, exact.X[j], free.X[j])
			}
		}
		if k > 1 {
			if _, err := Solve(p, k-1); !errors.Is(err, ErrIterationLimit) {
				t.Errorf("limit %d below pivot count %d: error = %v, want ErrIterationLimit", k-1, k, err)
			}
		}
	}
}
