package online

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/affect"
	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

func randomInstance(t testing.TB, seed int64, n int) *problem.Instance {
	t.Helper()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(seed)), n, 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func newEngine(t testing.TB, m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, opts ...Option) *Engine {
	t.Helper()
	e, err := New(m, in, v, powers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkSlots verifies every slot against the *uncached* oracle — the
// ground truth the whole affect layer is cross-checked against.
func checkSlots(t *testing.T, e *Engine, m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64) {
	t.Helper()
	if !e.Feasible() {
		t.Fatal("engine reports an infeasible slot")
	}
	for s := 0; s < e.NumSlots(); s++ {
		members := e.Slot(s)
		if len(members) == 0 {
			continue
		}
		if !m.SetFeasible(in, v, powers, members) {
			t.Fatalf("slot %d infeasible per the uncached oracle: %v", s, members)
		}
	}
}

// TestFirstFitMatchesGreedy pins the drain-and-replay oracle: replaying
// arrivals in the batch greedy's longest-first order through a first-fit
// engine must reproduce GreedyFirstFit's coloring exactly — and must do so
// again after a full drain, through the recycled trackers.
func TestFirstFitMatchesGreedy(t *testing.T) {
	in := randomInstance(t, 3, 80)
	m := sinr.Default()
	for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
		powers := power.Powers(m, in, power.Sqrt())
		want, err := coloring.GreedyFirstFit(m, in, v, powers, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, m, in, v, powers)
		order := coloring.LengthOrder(in)
		for round := 0; round < 2; round++ {
			for _, i := range order {
				if _, err := e.Arrive(i); err != nil {
					t.Fatal(err)
				}
			}
			got := e.Snapshot()
			if got.NumColors() != want.NumColors() {
				t.Fatalf("%s round %d: engine %d colors, batch greedy %d", v, round, got.NumColors(), want.NumColors())
			}
			for i := range got.Colors {
				if got.Colors[i] != want.Colors[i] {
					t.Fatalf("%s round %d: request %d in slot %d, batch greedy color %d", v, round, i, got.Colors[i], want.Colors[i])
				}
			}
			if err := m.CheckSchedule(in, v, got); err != nil {
				t.Fatalf("%s round %d: %v", v, round, err)
			}
			// Drain completely and replay: tracker recycling must leave no
			// residue in the accumulators.
			for _, i := range order {
				if err := e.Depart(i); err != nil {
					t.Fatal(err)
				}
			}
			if e.Len() != 0 || e.NumSlots() != 0 {
				t.Fatalf("%s round %d: drain left %d active in %d slots", v, round, e.Len(), e.NumSlots())
			}
		}
	}
}

// TestChurnAllPolicies is the tentpole invariant: for every admission ×
// repair combination, after every event of a randomized churn sequence,
// every slot is feasible — checked through the trackers after each event
// and against the uncached oracle periodically and at the end.
func TestChurnAllPolicies(t *testing.T) {
	in := randomInstance(t, 7, 60)
	m := sinr.Default()
	for _, v := range []sinr.Variant{sinr.Directed, sinr.Bidirectional} {
		powers := power.Powers(m, in, power.Sqrt())
		for _, adm := range Admissions() {
			for _, rep := range Repairs() {
				rng := rand.New(rand.NewSource(11))
				e := newEngine(t, m, in, v, powers, WithAdmission(adm), WithRepair(rep))
				for step := 0; step < 600; step++ {
					i := rng.Intn(in.N())
					if e.SlotOf(i) >= 0 {
						if err := e.Depart(i); err != nil {
							t.Fatalf("%s/%s/%s step %d: %v", v, adm, rep, step, err)
						}
					} else {
						if _, err := e.Arrive(i); err != nil {
							t.Fatalf("%s/%s/%s step %d: %v", v, adm, rep, step, err)
						}
					}
					if !e.Feasible() {
						t.Fatalf("%s/%s/%s step %d: infeasible slot", v, adm, rep, step)
					}
					if step%97 == 0 {
						checkSlots(t, e, m, in, v, powers)
					}
				}
				checkSlots(t, e, m, in, v, powers)
				// Fill up to a complete schedule and validate end to end.
				for i := 0; i < in.N(); i++ {
					if e.SlotOf(i) < 0 {
						if _, err := e.Arrive(i); err != nil {
							t.Fatalf("%s/%s/%s fill: %v", v, adm, rep, err)
						}
					}
				}
				if err := m.CheckSchedule(in, v, e.Snapshot()); err != nil {
					t.Fatalf("%s/%s/%s final schedule: %v", v, adm, rep, err)
				}
				st := e.Stats()
				if st.PeakSlots < e.NumSlots() || st.Arrivals == 0 || st.Departures == 0 || st.RowOps == 0 {
					t.Fatalf("%s/%s/%s: implausible stats %+v", v, adm, rep, st)
				}
			}
		}
	}
}

// TestZeroDistanceChurn drives the engine over an instance with
// shared-node request pairs (mutual affectance +Inf): the pairs must land
// in different slots and survive remove/re-add churn.
func TestZeroDistanceChurn(t *testing.T) {
	l, err := geom.NewLine([]float64{0, 1, 1, 2, 50, 51, 51, 52})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	for _, adm := range Admissions() {
		e := newEngine(t, m, in, sinr.Bidirectional, powers, WithAdmission(adm), WithRepair(EagerRepair))
		for i := 0; i < in.N(); i++ {
			if _, err := e.Arrive(i); err != nil {
				t.Fatal(err)
			}
		}
		if e.SlotOf(0) == e.SlotOf(1) || e.SlotOf(2) == e.SlotOf(3) {
			t.Fatalf("%s: zero-distance pair shares a slot", adm)
		}
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 200; step++ {
			i := rng.Intn(in.N())
			if e.SlotOf(i) >= 0 {
				if err := e.Depart(i); err != nil {
					t.Fatal(err)
				}
			} else if _, err := e.Arrive(i); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, e, m, in, sinr.Bidirectional, powers)
		}
	}
}

// TestRepairShrinks pins that the repair strategies actually win slots
// back: after departing most requests, eager repair ends with no more
// slots than lazy, and the eager engine has performed re-packs.
func TestRepairShrinks(t *testing.T) {
	in := randomInstance(t, 13, 100)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	slotsAfter := map[Repair]int{}
	for _, rep := range Repairs() {
		e := newEngine(t, m, in, sinr.Bidirectional, powers, WithRepair(rep))
		for i := 0; i < in.N(); i++ {
			if _, err := e.Arrive(i); err != nil {
				t.Fatal(err)
			}
		}
		peak := e.NumSlots()
		rng := rand.New(rand.NewSource(17))
		for _, i := range rng.Perm(in.N())[:90] {
			if err := e.Depart(i); err != nil {
				t.Fatal(err)
			}
		}
		slotsAfter[rep] = e.NumSlots()
		if e.NumSlots() > peak {
			t.Fatalf("%s: repair grew the schedule (%d > peak %d)", rep, e.NumSlots(), peak)
		}
		if rep == EagerRepair {
			if st := e.Stats(); st.Repairs == 0 || st.Repacks+st.Moves == 0 {
				t.Fatalf("eager repair never repaired: %+v", st)
			}
			// With 10 requests left, eager compaction must have dissolved
			// the emptied slots down to at most the active count.
			if e.NumSlots() > e.Len() {
				t.Fatalf("eager: %d slots for %d active requests", e.NumSlots(), e.Len())
			}
		}
	}
	if slotsAfter[EagerRepair] > slotsAfter[LazyRepair] {
		t.Fatalf("eager (%d slots) ended longer than lazy (%d)", slotsAfter[EagerRepair], slotsAfter[LazyRepair])
	}
}

// TestRepairCountsTrailingTrim pins that a departure emptying the last
// slot counts as one repair under every strategy — eager's compact pass
// finding nothing further must not swallow the trim.
func TestRepairCountsTrailingTrim(t *testing.T) {
	l, err := geom.NewLine([]float64{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// The two requests share coordinate 1, so they can never share a slot.
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	for _, rep := range Repairs() {
		e := newEngine(t, m, in, sinr.Bidirectional, powers, WithRepair(rep))
		for i := 0; i < 2; i++ {
			if _, err := e.Arrive(i); err != nil {
				t.Fatal(err)
			}
		}
		if e.NumSlots() != 2 {
			t.Fatalf("%s: zero-distance pair should occupy 2 slots, got %d", rep, e.NumSlots())
		}
		if err := e.Depart(1); err != nil {
			t.Fatal(err)
		}
		if e.NumSlots() != 1 {
			t.Fatalf("%s: trailing empty slot not trimmed", rep)
		}
		if got := e.Stats().Repairs; got != 1 {
			t.Fatalf("%s: trailing trim counted as %d repairs, want 1", rep, got)
		}
	}
}

// TestEngineErrors covers the argument contract.
func TestEngineErrors(t *testing.T) {
	in := randomInstance(t, 19, 10)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	if _, err := New(m, in, sinr.Bidirectional, powers[:5]); err == nil {
		t.Error("short powers must fail")
	}
	if _, err := New(m, nil, sinr.Bidirectional, powers); err == nil {
		t.Error("nil instance must fail")
	}
	if _, err := New(m, in, sinr.Variant(9), powers); err == nil {
		t.Error("unknown variant must fail")
	}
	if _, err := New(m, in, sinr.Bidirectional, powers, WithAdmission(Admission(42))); err == nil {
		t.Error("unknown admission must fail")
	}
	if _, err := New(m, in, sinr.Bidirectional, powers, WithRepair(Repair(42))); err == nil {
		t.Error("unknown repair must fail")
	}
	e := newEngine(t, m, in, sinr.Bidirectional, powers)
	if _, err := e.Arrive(-1); err == nil {
		t.Error("out-of-range arrive must fail")
	}
	if err := e.Depart(3); err == nil {
		t.Error("departing an inactive request must fail")
	}
	if _, err := e.Arrive(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Arrive(3); err == nil {
		t.Error("double arrive must fail")
	}
}

// TestMisuseNoMutation pins the no-mutation-on-rejection contract for
// every misuse path: the call returns its typed sentinel and leaves the
// lifetime counters, the assignment, the slot structure, and the
// observability stream (metric counters and emitted events) exactly as
// they were.
func TestMisuseNoMutation(t *testing.T) {
	in := randomInstance(t, 29, 12)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	col := obs.NewCollector()
	sink := obs.NewRing(256)
	e := newEngine(t, m, in, sinr.Bidirectional, powers, WithObserver(col))
	e.Events(sink)
	for i := 0; i < 6; i++ {
		if _, err := e.Arrive(i); err != nil {
			t.Fatal(err)
		}
	}

	type state struct {
		assign   []int
		stats    Stats
		counters map[string]int64
		events   int
		slots    int
		active   int
	}
	capture := func() state {
		assign := make([]int, in.N())
		for i := range assign {
			assign[i] = e.SlotOf(i)
		}
		return state{assign, e.Stats(), col.Snapshot().Counters, sink.Total(), e.NumSlots(), e.Len()}
	}

	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"duplicate arrive", func() error { _, err := e.Arrive(3); return err }, ErrDuplicateArrive},
		{"arrive below range", func() error { _, err := e.Arrive(-1); return err }, ErrUnknownRequest},
		{"arrive above range", func() error { _, err := e.Arrive(in.N()); return err }, ErrUnknownRequest},
		{"depart inactive", func() error { return e.Depart(7) }, ErrUnknownRequest},
		{"depart below range", func() error { return e.Depart(-2) }, ErrUnknownRequest},
		{"depart above range", func() error { return e.Depart(99) }, ErrUnknownRequest},
		{"arrive while draining", func() error {
			e.BeginDrain()
			defer e.EndDrain()
			_, err := e.Arrive(8)
			return err
		}, ErrDraining},
	}
	for _, tc := range cases {
		before := capture()
		err := tc.call()
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
		after := capture()
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: rejection mutated state:\n before %+v\n after  %+v", tc.name, before, after)
		}
	}

	// The engine must still be fully usable after the gauntlet.
	if _, err := e.Arrive(8); err != nil {
		t.Fatalf("arrive after misuse gauntlet: %v", err)
	}
	checkSlots(t, e, m, in, sinr.Bidirectional, powers)
}

// TestCacheReuse pins that an engine built from a model that already
// carries a covering cache of the right variant reuses it, and that a
// wrong-variant cache is replaced rather than panicking the trackers.
func TestCacheReuse(t *testing.T) {
	in := randomInstance(t, 23, 20)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	// Wrong variant attached: engine must build its own and still work.
	md := m.WithCache(affect.New(m, sinr.Directed, in, powers))
	e := newEngine(t, md, in, sinr.Bidirectional, powers)
	for i := 0; i < in.N(); i++ {
		if _, err := e.Arrive(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, e.Snapshot()); err != nil {
		t.Fatal(err)
	}
}
