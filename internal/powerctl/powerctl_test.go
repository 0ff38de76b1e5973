package powerctl

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/problem"
	"repro/internal/sinr"
)

func lineInstance(t *testing.T, coords []float64, reqs []problem.Request) *problem.Instance {
	t.Helper()
	l, err := geom.NewLine(coords)
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGrowthRateKnownMatrix(t *testing.T) {
	// 2x2 matrix [[0,a],[b,0]] has spectral radius sqrt(a·b).
	a, b := 4.0, 9.0
	apply := func(dst, src []float64) {
		dst[0] = a * src[1]
		dst[1] = b * src[0]
	}
	got := GrowthRate(apply, 2)
	if math.Abs(got-6) > 1e-6 {
		t.Errorf("growth rate = %g, want 6", got)
	}
}

func TestGrowthRateZeroMap(t *testing.T) {
	apply := func(dst, src []float64) { dst[0], dst[1] = 0, 0 }
	if got := GrowthRate(apply, 2); got != 0 {
		t.Errorf("growth rate = %g, want 0", got)
	}
}

func TestEmptySet(t *testing.T) {
	in := lineInstance(t, []float64{0, 1}, []problem.Request{{U: 0, V: 1}})
	_, err := Feasible(sinr.Default(), in, sinr.Directed, nil)
	if !errors.Is(err, ErrEmptySet) {
		t.Errorf("error = %v, want ErrEmptySet", err)
	}
}

func TestSingletonAlwaysFeasible(t *testing.T) {
	in := lineInstance(t, []float64{0, 1}, []problem.Request{{U: 0, V: 1}})
	for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
		m := sinr.Model{Alpha: 3, Beta: 2, Noise: 1}
		res, err := Feasible(m, in, v, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Errorf("%v: singleton should be feasible", v)
		}
		if !m.SetFeasible(in, v, res.Powers, []int{0}) {
			t.Errorf("%v: witness powers do not satisfy the constraints", v)
		}
	}
}

func TestFarPairsFeasibleNearPairsNot(t *testing.T) {
	m := sinr.Model{Alpha: 3, Beta: 1}
	far := lineInstance(t, []float64{0, 1, 100, 101}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
		res, err := Feasible(m, far, v, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Errorf("%v: far pairs should be feasible (rate %g)", v, res.GrowthRate)
		}
		if !m.SetFeasible(far, v, res.Powers, []int{0, 1}) {
			t.Errorf("%v: witness powers invalid", v)
		}
	}

	// Mutually drowning pairs: each receiver sits within 0.05 of the other
	// pair's sender while its own sender is ~10 away, so the product of
	// cross gains is ≈ (10/0.05)^(2α), far above 1.
	near := lineInstance(t, []float64{0, 10, 10.05, 0.05}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	res, err := Feasible(m, near, sinr.Directed, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("mutually-drowning pairs should be infeasible (rate %g)", res.GrowthRate)
	}
}

func TestCoincidentSenderReceiver(t *testing.T) {
	m := sinr.Model{Alpha: 3, Beta: 1}
	in := lineInstance(t, []float64{0, 1, 1, 2}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	res, err := Feasible(m, in, sinr.Directed, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || !math.IsInf(res.GrowthRate, 1) {
		t.Errorf("coincident sender/receiver should be infeasible with infinite rate, got %+v", res)
	}
}

func TestDirectedBorderlineRejected(t *testing.T) {
	// Symmetric two-pair instance tuned so the spectral radius is exactly
	// 1: both receivers at x=1, both cross distances equal both own
	// distances (α=1, β=1).
	m := sinr.Model{Alpha: 1, Beta: 1}
	in := lineInstance(t, []float64{0, 1, 2, 1}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	res, err := Feasible(m, in, sinr.Directed, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("borderline rate %g should be rejected", res.GrowthRate)
	}
	if math.Abs(res.GrowthRate-1) > 1e-6 {
		t.Errorf("growth rate = %g, want ~1", res.GrowthRate)
	}
}

func TestNestedInstanceFeasibleUnderOptimal(t *testing.T) {
	// The nested instance of the paper's introduction: u_i = -2^i,
	// v_i = 2^i. The interference map is linear in β, so after measuring
	// the growth rate at β = 1 the instance must be feasible in one slot at
	// any gain comfortably below 1/rate — and the witness must verify.
	var coords []float64
	var reqs []problem.Request
	for i := 1; i <= 6; i++ {
		r := math.Pow(2, float64(i))
		coords = append(coords, -r, r)
		reqs = append(reqs, problem.Request{U: 2 * (i - 1), V: 2*(i-1) + 1})
	}
	in := lineInstance(t, coords, reqs)
	set := []int{0, 1, 2, 3, 4, 5}
	probe, err := Feasible(sinr.Model{Alpha: 3, Beta: 1}, in, sinr.Bidirectional, set)
	if err != nil {
		t.Fatal(err)
	}
	if !(probe.GrowthRate > 0) || math.IsInf(probe.GrowthRate, 0) {
		t.Fatalf("unexpected growth rate %g", probe.GrowthRate)
	}
	m := sinr.Model{Alpha: 3, Beta: 0.5 / probe.GrowthRate}
	res, err := Feasible(m, in, sinr.Bidirectional, set)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("nested set should be feasible at gain %g (rate %g)", m.Beta, res.GrowthRate)
	}
	if !m.SetFeasible(in, sinr.Bidirectional, res.Powers, set) {
		t.Error("witness powers do not satisfy the bidirectional constraints")
	}
}

func TestUnknownVariant(t *testing.T) {
	in := lineInstance(t, []float64{0, 1, 5, 6}, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	if _, err := Feasible(sinr.Default(), in, sinr.Variant(42), []int{0, 1}); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestInvalidModel(t *testing.T) {
	in := lineInstance(t, []float64{0, 1}, []problem.Request{{U: 0, V: 1}})
	if _, err := Feasible(sinr.Model{Alpha: 0, Beta: 1}, in, sinr.Directed, []int{0}); err == nil {
		t.Error("invalid model should error")
	}
}

// TestWitnessConsistencyProperty: whenever the oracle declares a random set
// feasible, the witness powers must satisfy the SINR constraints; whenever
// it declares clearly-separated instances feasible the greedy check agrees.
func TestWitnessConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		coords := make([]float64, 0, 2*n)
		reqs := make([]problem.Request, 0, n)
		x := 0.0
		for i := 0; i < n; i++ {
			length := 0.5 + r.Float64()*3
			gap := 0.1 + r.Float64()*20
			coords = append(coords, x, x+length)
			reqs = append(reqs, problem.Request{U: 2 * i, V: 2*i + 1})
			x += length + gap
		}
		l, err := geom.NewLine(coords)
		if err != nil {
			return false
		}
		in, err := problem.New(l, reqs)
		if err != nil {
			return false
		}
		m := sinr.Model{Alpha: 1 + 3*r.Float64(), Beta: 0.2 + r.Float64()}
		set := make([]int, n)
		for i := range set {
			set[i] = i
		}
		for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
			res, err := Feasible(m, in, v, set)
			if err != nil {
				return false
			}
			if res.Feasible && !m.SetFeasible(in, v, res.Powers, set) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMonotonicityProperty: adding a request to a set can only increase the
// growth rate.
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		coords := make([]float64, 0, 2*n)
		reqs := make([]problem.Request, 0, n)
		x := 0.0
		for i := 0; i < n; i++ {
			coords = append(coords, x, x+1+r.Float64())
			reqs = append(reqs, problem.Request{U: 2 * i, V: 2*i + 1})
			x += 3 + r.Float64()*10
		}
		l, err := geom.NewLine(coords)
		if err != nil {
			return false
		}
		in, err := problem.New(l, reqs)
		if err != nil {
			return false
		}
		m := sinr.Default()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		sub := all[:n-1]
		rAll, err := Feasible(m, in, sinr.Directed, all)
		if err != nil {
			return false
		}
		rSub, err := Feasible(m, in, sinr.Directed, sub)
		if err != nil {
			return false
		}
		return rAll.GrowthRate >= rSub.GrowthRate-1e-9
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
