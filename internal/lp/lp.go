package lp

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a packing LP: maximize C·x subject to A x ≤ B and 0 ≤ x ≤ 1.
// Upper bounds x_j ≤ 1 are implicit and handled internally.
type Problem struct {
	// C is the objective vector (length = number of variables).
	C []float64
	// A is the constraint matrix, row-major; may be empty.
	A [][]float64
	// B is the right-hand side (length = len(A)).
	B []float64
}

// Solution carries the optimum of a Problem.
type Solution struct {
	// X is the optimal primal point.
	X []float64
	// Value is C·X.
	Value float64
	// Iterations is the number of simplex pivots performed.
	Iterations int
}

var (
	// ErrBadShape indicates inconsistent dimensions in the problem.
	ErrBadShape = errors.New("lp: inconsistent problem dimensions")
	// ErrNotPacking indicates a negative coefficient or right-hand side,
	// which this specialized solver does not support.
	ErrNotPacking = errors.New("lp: negative entry; solver requires a packing LP")
	// ErrIterationLimit indicates the pivot limit was exceeded.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
)

const (
	pivotEps = 1e-10
	costEps  = 1e-9
)

// Solve optimizes the packing LP. The number of pivots is bounded by
// maxIter; pass 0 for a generous default.
func Solve(p Problem, maxIter int) (*Solution, error) {
	n := len(p.C)
	if n == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrBadShape)
	}
	if len(p.A) != len(p.B) {
		return nil, fmt.Errorf("%w: %d rows, %d rhs entries", ErrBadShape, len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadShape, i, len(row), n)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: A[%d][%d]=%g", ErrNotPacking, i, j, v)
			}
		}
		if p.B[i] < 0 || math.IsNaN(p.B[i]) || math.IsInf(p.B[i], 0) {
			return nil, fmt.Errorf("%w: b[%d]=%g", ErrNotPacking, i, p.B[i])
		}
	}
	for j, v := range p.C {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: c[%d]=%g", ErrBadShape, j, v)
		}
	}
	if maxIter <= 0 {
		maxIter = 200 * (n + len(p.A) + 16)
	}

	// Tableau with rows = packing constraints + n upper-bound rows, and
	// columns = n structural variables + m slack variables + rhs.
	m := len(p.A) + n
	cols := n + m + 1
	t := make([][]float64, m+1) // last row is the objective
	for i := 0; i < len(p.A); i++ {
		row := make([]float64, cols)
		copy(row, p.A[i])
		row[n+i] = 1
		row[cols-1] = p.B[i]
		t[i] = row
	}
	for j := 0; j < n; j++ {
		row := make([]float64, cols)
		row[j] = 1
		row[n+len(p.A)+j] = 1
		row[cols-1] = 1
		t[len(p.A)+j] = row
	}
	obj := make([]float64, cols)
	for j := 0; j < n; j++ {
		obj[j] = -p.C[j] // minimize -c·x
	}
	t[m] = obj

	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	var iters int
	for ; ; iters++ {
		// Entering variable: Bland's rule (lowest index with negative
		// reduced cost).
		enter := -1
		for j := 0; j < n+m; j++ {
			if t[m][j] < -costEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		// The limit bounds the pivots made: it is exceeded only when all
		// are spent and the tableau still asks for another.
		if iters == maxIter {
			return nil, ErrIterationLimit
		}
		// Ratio test with Bland tie-breaking on the leaving basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][enter]
			if a <= pivotEps {
				continue
			}
			r := t[i][cols-1] / a
			if r < bestRatio-pivotEps || (math.Abs(r-bestRatio) <= pivotEps && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = r
				leave = i
			}
		}
		if leave < 0 {
			// Unbounded cannot happen with the box constraints, but guard.
			return nil, errors.New("lp: unbounded (internal error)")
		}
		pivot(t, leave, enter)
		basis[leave] = enter
	}

	x := make([]float64, n)
	for i, bj := range basis {
		if bj < n {
			x[bj] = t[i][cols-1]
		}
	}
	var val float64
	for j := 0; j < n; j++ {
		// Clamp tiny numerical noise into the box.
		if x[j] < 0 {
			x[j] = 0
		}
		if x[j] > 1 {
			x[j] = 1
		}
		val += p.C[j] * x[j]
	}
	return &Solution{X: x, Value: val, Iterations: iters}, nil
}

// pivot performs a Gauss-Jordan pivot on t[row][col].
func pivot(t [][]float64, row, col int) {
	pr := t[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	pr[col] = 1 // exact
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		ri := t[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
}
