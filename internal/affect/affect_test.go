package affect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// assignments are the three power variants the acceptance criteria name.
func assignments() []power.Assignment {
	return []power.Assignment{power.Uniform(1), power.Sqrt(), power.Linear()}
}

func randomInstance(t testing.TB, seed int64, n int) *problem.Instance {
	t.Helper()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(seed)), n, 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func randomSet(rng *rand.Rand, n int) []int {
	var set []int
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			set = append(set, i)
		}
	}
	if len(set) == 0 {
		set = []int{rng.Intn(n)}
	}
	return set
}

// exactTracker builds an empty exact tracker over (in, powers).
type exactTracker func(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) sinr.SetTracker

// exactTrackers are the two exact sinr.SetTracker implementations the
// tracker tests run against: the dense Tracker over the matrices, and
// the Direct engine's tracker, which computes every pair instead.
var exactTrackers = []struct {
	name string
	new  exactTracker
}{
	{"dense", func(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) sinr.SetTracker {
		return NewTracker(m, v, New(m, v, in, powers))
	}},
	{"direct", func(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) sinr.SetTracker {
		return NewDirect(m, v, in, powers).NewSetTracker(m, v)
	}},
}

func TestCoversIdentityAndValue(t *testing.T) {
	in := randomInstance(t, 2, 20)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	c := New(m, sinr.Bidirectional, in, powers)

	if !c.Covers(in, m.Alpha, powers) {
		t.Error("must cover the build slice")
	}
	copied := append([]float64(nil), powers...)
	if !c.Covers(in, m.Alpha, copied) {
		t.Error("must cover a bitwise-equal copy")
	}
	// A repeated query with the equal copy is covered again.
	if !c.Covers(in, m.Alpha, copied) {
		t.Error("a repeated query with an equal copy must be covered")
	}
	other := power.Powers(m, in, power.Linear())
	if c.Covers(in, m.Alpha, other) {
		t.Error("must not cover different powers")
	}
	if c.Covers(in, m.Alpha+1, powers) {
		t.Error("must not cover a different alpha")
	}
	in2 := randomInstance(t, 3, 20)
	if c.Covers(in2, m.Alpha, powers) {
		t.Error("must not cover a different instance")
	}
	if c.Covers(in, m.Alpha, powers[:10]) {
		t.Error("must not cover a shorter slice")
	}
}

func TestCacheForDetachesOnMismatch(t *testing.T) {
	in := randomInstance(t, 4, 15)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	cached := m.WithCache(New(m, sinr.Bidirectional, in, powers))
	if cached.CacheFor(in, powers) == nil {
		t.Fatal("cache should cover its build tuple")
	}
	other := power.Powers(m, in, power.Uniform(1))
	if cached.CacheFor(in, other) != nil {
		t.Fatal("CacheFor must reject foreign powers")
	}
}

func TestVariantRowsNil(t *testing.T) {
	in := randomInstance(t, 5, 10)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	d := New(m, sinr.Directed, in, powers)
	if d.DirectedInto(0) == nil || d.DirectedFrom(0) == nil {
		t.Error("directed cache must serve directed rows")
	}
	if d.IntoU(0) != nil || d.FromV(0) != nil {
		t.Error("directed cache must not serve bidirectional rows")
	}
	b := New(m, sinr.Bidirectional, in, powers)
	if b.IntoU(0) == nil || b.IntoV(0) == nil || b.FromU(0) == nil || b.FromV(0) == nil {
		t.Error("bidirectional cache must serve endpoint rows")
	}
	if b.DirectedInto(0) != nil {
		t.Error("bidirectional cache must not serve directed rows")
	}
}

func TestTransposeConsistency(t *testing.T) {
	in := randomInstance(t, 6, 25)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	c := New(m, sinr.Bidirectional, in, powers)
	for i := 0; i < in.N(); i++ {
		intoU, intoV := c.IntoU(i), c.IntoV(i)
		for j := 0; j < in.N(); j++ {
			if c.FromU(j)[i] != intoU[j] || c.FromV(j)[i] != intoV[j] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestTrackerMatchesOracle drives a random insert/remove sequence and
// checks margins and set feasibility against the uncached model after
// every operation, for both exact trackers, both variants and all three
// power assignments.
func TestTrackerMatchesOracle(t *testing.T) {
	for _, kind := range exactTrackers {
		t.Run(kind.name, func(t *testing.T) { trackerMatchesOracle(t, kind.new) })
	}
}

func trackerMatchesOracle(t *testing.T, newTracker exactTracker) {
	in := randomInstance(t, 11, 40)
	rng := rand.New(rand.NewSource(42))
	m := sinr.Default()
	for _, a := range assignments() {
		powers := power.Powers(m, in, a)
		for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
			tr := newTracker(m, v, in, powers)
			var set []int
			inSet := make(map[int]bool)
			for step := 0; step < 200; step++ {
				i := rng.Intn(in.N())
				if inSet[i] {
					tr.Remove(i)
					delete(inSet, i)
					for k, x := range set {
						if x == i {
							set = append(set[:k], set[k+1:]...)
							break
						}
					}
				} else {
					tr.Add(i)
					inSet[i] = true
					set = append(set, i)
				}
				if tr.Len() != len(set) {
					t.Fatalf("step %d: tracker size %d, want %d", step, tr.Len(), len(set))
				}
				for _, j := range set {
					got := tr.Margin(j)
					want := m.Margin(in, v, powers, set, j)
					if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("%s %s step %d: margin(%d) tracker %g, oracle %g",
							a.Name(), v, step, j, got, want)
					}
				}
				if got, want := tr.SetFeasible(), m.SetFeasible(in, v, powers, set); got != want {
					// Disagreement is only legal within the drift band
					// around the tolerance; re-check with the margins.
					worst, _, err := m.WorstMargin(in, v, powers, set)
					if err != nil || math.Abs(worst+sinr.Tol) > 1e-6 {
						t.Fatalf("%s %s step %d: SetFeasible tracker %t, oracle %t (worst %g)",
							a.Name(), v, step, got, want, worst)
					}
				}
			}
		}
	}
}

func TestTrackerOrderAndQueries(t *testing.T) {
	for _, kind := range exactTrackers {
		t.Run(kind.name, func(t *testing.T) { trackerOrderAndQueries(t, kind.new) })
	}
}

func trackerOrderAndQueries(t *testing.T, newTracker exactTracker) {
	in := randomInstance(t, 12, 20)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	tr := newTracker(m, sinr.Bidirectional, in, powers)
	for _, i := range []int{5, 2, 9, 0, 7} {
		tr.Add(i)
	}
	tr.Remove(9)
	got := tr.Members()
	want := []int{5, 2, 0, 7}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("members %v, want %v (insertion order preserved)", got, want)
		}
	}
	if !tr.Contains(2) || tr.Contains(9) {
		t.Error("Contains wrong after Remove")
	}
	// AddMargin must agree with the oracle margin of the extended set.
	cand := 11
	wantMg := m.Margin(in, sinr.Bidirectional, powers, append(tr.Members(), cand), cand)
	if gotMg := tr.AddMargin(cand); math.Abs(gotMg-wantMg) > 1e-9*(1+math.Abs(wantMg)) {
		t.Fatalf("AddMargin %g, oracle %g", gotMg, wantMg)
	}
	// CanAdd must agree with a direct feasibility probe of the extended set.
	ext := append(tr.Members(), cand)
	wantOK := m.SetFeasible(in, sinr.Bidirectional, powers, ext)
	if gotOK := tr.CanAdd(cand); gotOK != wantOK {
		t.Fatalf("CanAdd %t, oracle %t", gotOK, wantOK)
	}
	worst, arg := tr.WorstMargin()
	oWorst, oArg, err := m.WorstMargin(in, sinr.Bidirectional, powers, tr.Members())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-oWorst) > 1e-9*(1+math.Abs(oWorst)) || arg != oArg {
		t.Fatalf("WorstMargin (%g,%d), oracle (%g,%d)", worst, arg, oWorst, oArg)
	}
}

func TestNewPanicsOnLengthMismatch(t *testing.T) {
	in := randomInstance(t, 14, 5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on powers length mismatch")
		}
	}()
	New(sinr.Default(), sinr.Bidirectional, in, make([]float64, 3))
}

// TestTrackerZeroDistancePairs pins the Inf-affectance regression: two
// requests sharing a node have mutual affectance p/0 = +Inf, and removing
// one must not leave NaN accumulators (Inf - Inf) that mask the partner's
// constraints. Margins after any insert/remove sequence must match the
// uncached oracle.
func TestTrackerZeroDistancePairs(t *testing.T) {
	for _, kind := range exactTrackers {
		t.Run(kind.name, func(t *testing.T) { trackerZeroDistancePairs(t, kind.new) })
	}
}

func trackerZeroDistancePairs(t *testing.T, newTracker exactTracker) {
	// Nodes at 0,1 | 1,2 | 50,51: requests 0 and 1 share coordinate 1.
	l, err := geom.NewLine([]float64{0, 1, 1, 2, 50, 51})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	tr := newTracker(m, sinr.Bidirectional, in, powers)

	tr.Add(0)
	tr.Add(1) // infinite mutual interference with 0
	tr.Add(2)
	if tr.SetFeasible() {
		t.Fatal("zero-distance pair must be infeasible together")
	}
	tr.Remove(1) // must not poison request 0's accumulators with NaN
	for _, i := range tr.Members() {
		got := tr.Margin(i)
		want := m.Margin(in, sinr.Bidirectional, powers, tr.Members(), i)
		if math.IsNaN(got) || math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("margin(%d) after removing Inf partner: tracker %g, oracle %g", i, got, want)
		}
	}
	if got, want := tr.SetFeasible(), m.SetFeasible(in, sinr.Bidirectional, powers, tr.Members()); got != want {
		t.Fatalf("SetFeasible after Inf removal: tracker %t, oracle %t", got, want)
	}
	// Re-adding the partner must restore the infinite interference.
	tr.Add(1)
	if tr.SetFeasible() {
		t.Fatal("re-added zero-distance pair must be infeasible again")
	}
}
