package affect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// freshTracker rebuilds a tracker from scratch by inserting the members in
// the same insertion order, so its accumulators carry no incremental
// history. It is the drift-free reference the churn tests compare against.
func freshTracker(newTracker func() sinr.SetTracker, members []int) sinr.SetTracker {
	tr := newTracker()
	for _, i := range members {
		tr.Add(i)
	}
	return tr
}

// sameMargin compares a churned tracker's margin with the from-scratch
// value: non-finite values must match exactly (an Inf accumulator that
// drifted to NaN is precisely the bug class this hunts), finite ones to a
// tight relative tolerance.
func sameMargin(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	if math.IsInf(want, 0) {
		return got == want
	}
	return !math.IsNaN(got) && math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// churnCrossCheck runs a randomized add/remove/re-add sequence on one
// tracker and, after every step, compares every member's margin and the
// set verdicts against a tracker rebuilt from scratch — catching any
// accumulator drift the incremental updates introduce.
func churnCrossCheck(t *testing.T, m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64, seed int64, steps int) {
	t.Helper()
	for _, kind := range exactTrackers {
		newTracker := func() sinr.SetTracker { return kind.new(m, v, in, powers) }
		rng := rand.New(rand.NewSource(seed))
		tr := newTracker()
		for step := 0; step < steps; step++ {
			i := rng.Intn(in.N())
			if tr.Contains(i) {
				tr.Remove(i)
			} else {
				tr.Add(i)
			}
			ref := freshTracker(newTracker, tr.Members())
			for _, j := range tr.Members() {
				if got, want := tr.Margin(j), ref.Margin(j); !sameMargin(got, want) {
					t.Fatalf("%s %s step %d: margin(%d) churned %g, fresh %g", kind.name, v, step, j, got, want)
				}
			}
			if got, want := tr.SetFeasible(), ref.SetFeasible(); got != want {
				t.Fatalf("%s %s step %d: SetFeasible churned %t, fresh %t", kind.name, v, step, got, want)
			}
			// The argmin may legitimately differ when two members tie within
			// the drift band; the worst value itself must still agree.
			gw, _ := tr.WorstMargin()
			ww, _ := ref.WorstMargin()
			if !sameMargin(gw, ww) {
				t.Fatalf("%s %s step %d: WorstMargin churned %g, fresh %g", kind.name, v, step, gw, ww)
			}
		}
	}
}

// TestTrackerChurnMatchesFresh is the adversarial-churn drift check on
// well-separated random instances, for both variants and the three named
// assignments.
func TestTrackerChurnMatchesFresh(t *testing.T) {
	in := randomInstance(t, 21, 30)
	m := sinr.Default()
	for _, a := range assignments() {
		powers := power.Powers(m, in, a)
		for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
			churnCrossCheck(t, m, v, in, powers, 77, 400)
		}
	}
}

// sharedNodeInstance builds a line instance where several requests share a
// node, so their mutual affectance rows contain p/0 = +Inf entries — the
// non-finite regime of Remove's recompute path.
func sharedNodeInstance(t *testing.T) *problem.Instance {
	t.Helper()
	l, err := geom.NewLine([]float64{0, 1, 1, 2, 2, 3, 40, 41, 41, 42, 90, 95})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, []problem.Request{
		{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, // chain sharing coordinates 1 and 2
		{U: 6, V: 7}, {U: 8, V: 9}, // second shared coordinate at 41
		{U: 10, V: 11}, // isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestTrackerChurnZeroDistance runs the same drift check on an instance
// riddled with zero-distance pairs: every remove of an Inf partner must
// leave the survivors' accumulators exactly where a from-scratch build
// puts them, for hundreds of re-add cycles.
func TestTrackerChurnZeroDistance(t *testing.T) {
	in := sharedNodeInstance(t)
	m := sinr.Default()
	for _, a := range assignments() {
		powers := power.Powers(m, in, a)
		for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
			churnCrossCheck(t, m, v, in, powers, 99, 600)
		}
	}
}

// TestTrackerReset pins the recycle contract: after Reset the tracker is
// empty, every query treats former members as absent, and a re-populated
// tracker is indistinguishable from a freshly allocated one.
func TestTrackerReset(t *testing.T) {
	for _, kind := range exactTrackers {
		t.Run(kind.name, func(t *testing.T) { trackerReset(t, kind.new) })
	}
}

func trackerReset(t *testing.T, newExact exactTracker) {
	in := sharedNodeInstance(t)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	newTracker := func() sinr.SetTracker { return newExact(m, sinr.Bidirectional, in, powers) }
	tr := newTracker()
	for _, i := range []int{0, 1, 5, 3} { // includes an Inf pair (0,1)
		tr.Add(i)
	}
	tr.Reset()
	if tr.Len() != 0 || len(tr.Members()) != 0 {
		t.Fatalf("Reset left %d members", tr.Len())
	}
	for i := 0; i < in.N(); i++ {
		if tr.Contains(i) {
			t.Fatalf("Reset left request %d a member", i)
		}
	}
	// Recycled tracker must match a fresh one on a new set, including the
	// accumulators of requests that were members before the Reset.
	for _, i := range []int{1, 2, 5} {
		tr.Add(i)
	}
	ref := freshTracker(newTracker, []int{1, 2, 5})
	for _, j := range tr.Members() {
		if got, want := tr.Margin(j), ref.Margin(j); !sameMargin(got, want) {
			t.Fatalf("recycled margin(%d) %g, fresh %g", j, got, want)
		}
	}
	if got, want := tr.SetFeasible(), ref.SetFeasible(); got != want {
		t.Fatalf("recycled SetFeasible %t, fresh %t", got, want)
	}
}
