package oblivious

import (
	"context"
	"math"
	"testing"
)

// fourLinks is the quickstart topology: two nearby links and two far links.
func fourLinks(t *testing.T) *Instance {
	t.Helper()
	points := [][]float64{
		{0, 0}, {3, 0},
		{1, 1}, {1, 5},
		{40, 40}, {42, 40},
		{41, 45}, {41, 41},
	}
	reqs := []Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}}
	in, err := NewEuclideanInstance(points, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDefaultModel(t *testing.T) {
	m := DefaultModel()
	if m.Alpha != 3 || m.Beta != 1 || m.Noise != 0 {
		t.Errorf("DefaultModel = %+v", m)
	}
}

func TestConstructors(t *testing.T) {
	if _, err := NewEuclideanInstance(nil, nil); err == nil {
		t.Error("empty Euclidean instance should fail")
	}
	if _, err := NewLineInstance([]float64{0, 1}, []Request{{U: 0, V: 1}}); err != nil {
		t.Errorf("line instance: %v", err)
	}
	if _, err := NewMatrixInstance([][]float64{{0, 2}, {2, 0}}, []Request{{U: 0, V: 1}}); err != nil {
		t.Errorf("matrix instance: %v", err)
	}
}

func TestAssignments(t *testing.T) {
	if got := Sqrt().Power(16); got != 4 {
		t.Errorf("Sqrt(16) = %g", got)
	}
	if got := Uniform(3).Power(100); got != 3 {
		t.Errorf("Uniform(3) = %g", got)
	}
	if got := Linear().Power(7); got != 7 {
		t.Errorf("Linear(7) = %g", got)
	}
	if got := Exponent(2).Power(3); got != 9 {
		t.Errorf("Exponent(2)(3) = %g", got)
	}
}

func TestPowersFor(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	ps := PowersFor(m, in, Sqrt())
	if len(ps) != 4 {
		t.Fatalf("len = %d", len(ps))
	}
	// Link 0 has length 3 → loss 27 → power √27.
	if math.Abs(ps[0]-math.Sqrt(27)) > 1e-12 {
		t.Errorf("power[0] = %g, want √27", ps[0])
	}
}

func TestScheduleGreedyEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	for _, v := range []Variant{Directed, Bidirectional} {
		res, err := Lookup("greedy").Solve(context.Background(), m, in, WithVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(m, in, v, res.Schedule); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}

func TestScheduleGreedyPowers(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	s, err := ScheduleGreedyPowers(m, in, Bidirectional, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m, in, Bidirectional, s); err != nil {
		t.Error(err)
	}
}

func TestScheduleLPEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	res, err := Lookup("lp").Solve(context.Background(), m, in, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s, stats := res.Schedule, res.Stats.LP
	if err := Validate(m, in, Bidirectional, s); err != nil {
		t.Error(err)
	}
	if stats.Rounds < 1 {
		t.Error("no rounds recorded")
	}
	// Determinism: same seed, same coloring.
	res2, err := Lookup("lp").Solve(context.Background(), m, in, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s2 := res2.Schedule
	for i := range s.Colors {
		if s.Colors[i] != s2.Colors[i] {
			t.Fatal("LP coloring not deterministic for a fixed seed")
		}
	}
}

func TestSchedulePipelineEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	res, err := Lookup("pipeline").Solve(context.Background(), m, in, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m, in, Bidirectional, res.Schedule); err != nil {
		t.Error(err)
	}
}

func TestSingleSlotFeasible(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	ok, powers, err := SingleSlotFeasible(m, in, Bidirectional, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("two far-apart links should share a slot")
	}
	if len(powers) != in.N() {
		t.Errorf("witness powers length %d", len(powers))
	}
	// Links 0 and 1 are adjacent with comparable lengths: cannot share at
	// β = 1 without... actually verify against the oracle's own answer by
	// checking witness consistency instead.
	ok01, p01, err := SingleSlotFeasible(m, in, Bidirectional, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok01 {
		s := &Schedule{Colors: []int{0, 0, 1, 1}, Powers: p01}
		s.Powers[2], s.Powers[3] = 1, 1
		if err := Validate(m, in, Bidirectional, s); err != nil {
			t.Errorf("oracle said feasible but witness fails: %v", err)
		}
	}
}

func TestMaxSimultaneous(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	set := MaxSimultaneous(m, in, Bidirectional, Sqrt())
	if len(set) == 0 {
		t.Fatal("empty set")
	}
	powers := PowersFor(m, in, Sqrt())
	if !m.SetFeasible(in, Bidirectional, powers, set) {
		t.Error("MaxSimultaneous returned an infeasible set")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	in := fourLinks(t)
	data, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() {
		t.Fatalf("round trip N = %d, want %d", back.N(), in.N())
	}
	for i := 0; i < in.N(); i++ {
		if math.Abs(back.Length(i)-in.Length(i)) > 1e-12 {
			t.Errorf("length %d changed: %g vs %g", i, back.Length(i), in.Length(i))
		}
	}
}

func TestMarshalLineAndMatrix(t *testing.T) {
	lin, err := NewLineInstance([]float64{0, 1, 10, 12}, []Request{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalInstance(lin)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Length(1) != 2 {
		t.Errorf("line round trip length = %g", back.Length(1))
	}

	mat, err := NewMatrixInstance([][]float64{{0, 1, 3}, {1, 0, 2}, {3, 2, 0}}, []Request{{U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	data, err = MarshalInstance(mat)
	if err != nil {
		t.Fatal(err)
	}
	back, err = UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Length(0) != 3 {
		t.Errorf("matrix round trip length = %g", back.Length(0))
	}
}

func TestUnmarshalValidation(t *testing.T) {
	if _, err := UnmarshalInstance([]byte(`not json`)); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := UnmarshalInstance([]byte(`{"requests":[{"u":0,"v":1}]}`)); err == nil {
		t.Error("missing space should fail")
	}
	if _, err := UnmarshalInstance([]byte(`{"line":[0,1],"points":[[0],[1]],"requests":[{"u":0,"v":1}]}`)); err == nil {
		t.Error("ambiguous space should fail")
	}
	if _, err := MarshalInstance(nil); err == nil {
		t.Error("nil instance should fail")
	}
}
