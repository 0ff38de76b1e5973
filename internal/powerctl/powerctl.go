package powerctl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/problem"
	"repro/internal/sinr"
)

// The iteration settings of the feasibility tests.
const (
	// maxIter bounds the number of power/fixed-point iterations.
	maxIter = 500
	// tol is the convergence tolerance on the growth-rate estimate.
	tol = 1e-12
	// margin is the dead zone around growth rate 1 inside which the set
	// is conservatively declared infeasible (the paper requires strict
	// inequalities, so borderline sets are rejected).
	margin = 1e-7
)

// Result reports the outcome of a feasibility test.
type Result struct {
	// Feasible is true if the set admits a single-slot schedule with some
	// positive power assignment.
	Feasible bool
	// GrowthRate is the estimated (nonlinear) spectral radius of the
	// interference map; Feasible requires GrowthRate < 1 - 1e-7.
	GrowthRate float64
	// Powers holds witness powers indexed like the instance's requests
	// (zero outside the set) when Feasible, nil otherwise.
	Powers []float64
}

// ErrEmptySet is returned when the candidate set is empty.
var ErrEmptySet = errors.New("powerctl: empty request set")

// Feasible decides single-slot feasibility of set under optimal power
// control for the given variant.
func Feasible(m sinr.Model, in *problem.Instance, v sinr.Variant, set []int) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if len(set) == 0 {
		return Result{}, ErrEmptySet
	}
	if len(set) == 1 {
		return singletonResult(m, in, set[0]), nil
	}
	switch v {
	case sinr.Directed:
		return directedFeasible(m, in, set)
	case sinr.Bidirectional:
		return bidirectionalFeasible(m, in, set)
	default:
		return Result{}, fmt.Errorf("powerctl: unknown variant %d", int(v))
	}
}

// singletonResult handles sets of size one, which are always feasible: the
// only constraint is p/ℓ ≥ β·ν, satisfiable by scaling.
func singletonResult(m sinr.Model, in *problem.Instance, i int) Result {
	powers := make([]float64, in.N())
	// Signal strength 1 plus enough headroom for the noise term.
	powers[i] = m.RequestLoss(in, i) * (1 + 2*m.Beta*m.Noise)
	return Result{Feasible: true, GrowthRate: 0, Powers: powers}
}

// directedFeasible builds the k×k gain matrix B over the set and tests
// ρ(B) < 1.
func directedFeasible(m sinr.Model, in *problem.Instance, set []int) (Result, error) {
	k := len(set)
	b := make([][]float64, k)
	for a := 0; a < k; a++ {
		i := set[a]
		li := m.RequestLoss(in, i)
		row := make([]float64, k)
		vi := in.Reqs[i].V
		for c := 0; c < k; c++ {
			if c == a {
				continue
			}
			j := set[c]
			cross := m.Loss(in.Space.Dist(in.Reqs[j].U, vi))
			if cross == 0 {
				// A foreign sender sits exactly on our receiver: infinite
				// interference, never feasible together.
				return Result{Feasible: false, GrowthRate: math.Inf(1)}, nil
			}
			row[c] = m.Beta * li / cross
		}
		b[a] = row
	}
	apply := func(dst, src []float64) {
		for a := 0; a < k; a++ {
			var s float64
			row := b[a]
			for c := 0; c < k; c++ {
				s += row[c] * src[c]
			}
			dst[a] = s
		}
	}
	rho := GrowthRate(apply, k)
	res := Result{GrowthRate: rho}
	if rho >= 1-margin {
		return res, nil
	}
	powers, ok := directedWitness(m, in, set, b)
	if !ok || !m.SetFeasible(in, sinr.Directed, powers, set) {
		// Conservative: near the feasibility boundary the linear solve can
		// fail to produce a strictly feasible point; reject.
		return res, nil
	}
	res.Feasible = true
	res.Powers = powers
	return res, nil
}

// directedWitness solves (I − B)p = c exactly by Gaussian elimination with
// partial pivoting, where c_i = ℓ_i·(1 + β·ν) provides slack for both the
// noise and the strict inequality. It reports ok = false if the system is
// singular or yields non-positive powers.
func directedWitness(m sinr.Model, in *problem.Instance, set []int, b [][]float64) ([]float64, bool) {
	k := len(set)
	a := make([][]float64, k)
	for i := 0; i < k; i++ {
		row := make([]float64, k+1)
		for j := 0; j < k; j++ {
			row[j] = -b[i][j]
		}
		row[i] += 1
		row[k] = m.RequestLoss(in, set[i]) * (1 + m.Beta*m.Noise)
		a[i] = row
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for j := col; j <= k; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	powers := make([]float64, in.N())
	for i := 0; i < k; i++ {
		p := a[i][k] / a[i][i]
		if !(p > 0) || math.IsInf(p, 0) || math.IsNaN(p) {
			return nil, false
		}
		powers[set[i]] = p
	}
	return powers, true
}

// bidirectionalFeasible tests the growth rate of the monotone interference
// map of the bidirectional constraints.
func bidirectionalFeasible(m sinr.Model, in *problem.Instance, set []int) (Result, error) {
	k := len(set)
	// crossU[a][c] = β·ℓ_a / min-loss(request c → endpoint U of request a),
	// likewise crossV for endpoint V. The interference map is
	// I_a(p) = max(Σ_c crossU[a][c]·p_c, Σ_c crossV[a][c]·p_c).
	crossU := make([][]float64, k)
	crossV := make([][]float64, k)
	for a := 0; a < k; a++ {
		i := set[a]
		li := m.RequestLoss(in, i)
		ru := make([]float64, k)
		rv := make([]float64, k)
		for c := 0; c < k; c++ {
			if c == a {
				continue
			}
			j := set[c]
			lu := m.MinLossToNode(in, j, in.Reqs[i].U)
			lv := m.MinLossToNode(in, j, in.Reqs[i].V)
			if lu == 0 || lv == 0 {
				return Result{Feasible: false, GrowthRate: math.Inf(1)}, nil
			}
			ru[c] = m.Beta * li / lu
			rv[c] = m.Beta * li / lv
		}
		crossU[a] = ru
		crossV[a] = rv
	}
	apply := func(dst, src []float64) {
		for a := 0; a < k; a++ {
			var su, sv float64
			ru, rv := crossU[a], crossV[a]
			for c := 0; c < k; c++ {
				su += ru[c] * src[c]
				sv += rv[c] * src[c]
			}
			if sv > su {
				su = sv
			}
			dst[a] = su
		}
	}
	rho := GrowthRate(apply, k)
	res := Result{GrowthRate: rho}
	if rho >= 1-margin {
		return res, nil
	}
	powers := witnessPowers(m, in, set, apply)
	if !m.SetFeasible(in, sinr.Bidirectional, powers, set) {
		// Conservative: near the boundary the fixed-point iteration may not
		// have converged to a strictly feasible point; reject.
		return res, nil
	}
	res.Feasible = true
	res.Powers = powers
	return res, nil
}

// GrowthRate estimates the Perron root of a monotone homogeneous map by
// normalized iteration from the all-ones vector. For a linear map this is
// classic power iteration; for the bidirectional max-of-linear map it is the
// Collatz–Wielandt growth rate. Because the map can be imprimitive (e.g. a
// two-cycle, whose per-step norms oscillate), the estimate is the geometric
// mean of the per-step growth over the second half of the iterations, which
// converges to the Perron root even in the periodic case.
func GrowthRate(apply func(dst, src []float64), k int) float64 {
	x := make([]float64, k)
	y := make([]float64, k)
	for i := range x {
		x[i] = 1
	}
	var (
		lambda  = math.Inf(1)
		logSum  float64
		samples int
	)
	half := maxIter / 2
	for it := 0; it < maxIter; it++ {
		apply(y, x)
		norm := 0.0
		for _, v := range y {
			if v > norm {
				norm = v
			}
		}
		if norm == 0 {
			return 0 // no interference at all
		}
		for i := range y {
			y[i] /= norm
		}
		// Floor the iterate to keep it strictly positive, so the estimate
		// tracks the overall spectral radius even for reducible maps.
		const floor = 1e-300
		for i := range y {
			if y[i] < floor {
				y[i] = floor
			}
		}
		x, y = y, x
		if math.Abs(norm-lambda) <= tol*math.Max(1, norm) && it > 10 {
			return norm
		}
		lambda = norm
		if it >= half {
			logSum += math.Log(norm)
			samples++
		}
	}
	if samples == 0 {
		return lambda
	}
	return math.Exp(logSum / float64(samples))
}

// witnessPowers runs the fixed-point iteration p ← A(p) + c, which converges
// when the growth rate is < 1, and returns powers indexed by request.
// c_i = ℓ_i·(1 + β·ν) so that the fixed point has slack against both the
// noise and the strict inequality. Convergence is geometric with the growth
// rate as the factor; callers verify the result and treat non-convergence
// as infeasible.
func witnessPowers(m sinr.Model, in *problem.Instance, set []int, apply func(dst, src []float64)) []float64 {
	k := len(set)
	c := make([]float64, k)
	for a, i := range set {
		li := m.RequestLoss(in, i)
		c[a] = li * (1 + m.Beta*m.Noise)
	}
	p := append([]float64(nil), c...)
	q := make([]float64, k)
	for it := 0; it < 20*maxIter; it++ {
		apply(q, p)
		var delta float64
		for a := 0; a < k; a++ {
			next := q[a] + c[a]
			if rel := math.Abs(next-p[a]) / math.Max(1, math.Abs(p[a])); rel > delta {
				delta = rel
			}
			p[a] = next
		}
		if delta < tol {
			break
		}
	}
	powers := make([]float64, in.N())
	for a, i := range set {
		powers[i] = p[a]
	}
	return powers
}
