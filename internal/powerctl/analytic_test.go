package powerctl

import (
	"math"
	"testing"

	"repro/internal/problem"
	"repro/internal/sinr"
)

// TestDirectedTwoPairAnalytic checks the oracle against the closed form
// for two directed pairs: the gain matrix is [[0, B01], [B10, 0]] with
// spectral radius √(B01·B10), where
// B_ij = β·ℓ(own_i)/ℓ(u_j → v_i).
func TestDirectedTwoPairAnalytic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		coords []float64 // u0, v0, u1, v1
		alpha  float64
		beta   float64
	}{
		{name: "symmetric", coords: []float64{0, 1, 3, 2}, alpha: 2, beta: 1},
		{name: "asymmetric lengths", coords: []float64{0, 2, 10, 7}, alpha: 3, beta: 0.5},
		{name: "barely apart", coords: []float64{0, 1, 2.2, 3.2}, alpha: 2.5, beta: 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := lineInstance(t, tc.coords, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
			m := sinr.Model{Alpha: tc.alpha, Beta: tc.beta}
			res, err := Feasible(m, in, sinr.Directed, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			l0 := m.Loss(math.Abs(tc.coords[1] - tc.coords[0]))
			l1 := m.Loss(math.Abs(tc.coords[3] - tc.coords[2]))
			cross01 := m.Loss(math.Abs(tc.coords[2] - tc.coords[1])) // u1 -> v0
			cross10 := m.Loss(math.Abs(tc.coords[0] - tc.coords[3])) // u0 -> v1
			want := math.Sqrt((tc.beta * l0 / cross01) * (tc.beta * l1 / cross10))
			if math.Abs(res.GrowthRate-want) > 1e-6*(1+want) {
				t.Errorf("growth rate = %g, want %g", res.GrowthRate, want)
			}
			if res.Feasible != (want < 1-1e-7) {
				t.Errorf("feasible = %v at rate %g", res.Feasible, want)
			}
		})
	}
}

// TestBidirectionalSymmetricNestedAnalytic checks the bidirectional oracle
// on the two-pair nested instance (±2, ±4), whose interference map has the
// closed-form Perron root β·√(2^α·4^α).
func TestBidirectionalSymmetricNestedAnalytic(t *testing.T) {
	in := lineInstance(t, []float64{-2, 2, -4, 4}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	m := sinr.Model{Alpha: 3, Beta: 1}
	res, err := Feasible(m, in, sinr.Bidirectional, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pair 0 (length 4, loss 4^α) sees pair 1's closer endpoint at
	// distance 2 from each of its endpoints: I_0 = β·4^α·p1/2^α = β·2^α·p1.
	// Pair 1 (length 8) sees pair 0's closer endpoint at distance 2:
	// I_1 = β·8^α·p0/2^α = β·4^α·p0. Perron root: β·√(2^α·4^α) = β·√(8^α).
	want := math.Sqrt(math.Pow(8, 3))
	if math.Abs(res.GrowthRate-want) > 1e-6*want {
		t.Errorf("growth rate = %g, want %g", res.GrowthRate, want)
	}
	if res.Feasible {
		t.Error("rate ≫ 1 must be infeasible")
	}
	// At β slightly below 1/want the same set becomes feasible.
	m2 := sinr.Model{Alpha: 3, Beta: 0.9 / want}
	res2, err := Feasible(m2, in, sinr.Bidirectional, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Feasible {
		t.Errorf("rate %g at reduced gain should be feasible", res2.GrowthRate)
	}
	if !m2.SetFeasible(in, sinr.Bidirectional, res2.Powers, []int{0, 1}) {
		t.Error("witness powers invalid")
	}
}

// TestGrowthRateReducibleMatrix: a strictly triangular (nilpotent) map has
// spectral radius 0 and must be reported as highly feasible.
func TestGrowthRateReducibleMatrix(t *testing.T) {
	apply := func(dst, src []float64) {
		dst[0] = 0.5 * src[1]
		dst[1] = 0
	}
	got := GrowthRate(apply, 2)
	if got > 1e-6 {
		t.Errorf("nilpotent growth rate = %g, want ~0", got)
	}
}
