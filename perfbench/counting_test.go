package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// TestCountingEngineReproducesSchedules pins the traced run's premise:
// over a counting-wrapped sparse engine, GreedyFirstFit, ThinToGain and
// SqrtLPColoring return bitwise the results they return over the bare
// engine, and they really run on the wrapped trackers (a wrapper that
// hid PairBound, say, would silently send thinning to the direct loop).
func TestCountingEngineReproducesSchedules(t *testing.T) {
	m := sinr.Default()
	const n = 300
	in, err := instance.UniformRandom(rand.New(rand.NewSource(5)), n, 300*math.Sqrt(n/2000.0), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	eng, err := sparse.New(m, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	ops := &trackerOps{}
	bare, wrapped := m.WithCache(eng), m.WithCache(countingEngine{Engine: eng, ops: ops})

	t.Run("GreedyFirstFit", func(t *testing.T) {
		*ops = trackerOps{}
		want, err := coloring.GreedyFirstFit(bare, in, sinr.Bidirectional, powers, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coloring.GreedyFirstFit(wrapped, in, sinr.Bidirectional, powers, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, got, want)
		if ops.CanAdd.Calls == 0 || ops.Add.Calls != n {
			t.Errorf("greedy did not run on the wrapped trackers: %+v", *ops)
		}
	})

	t.Run("ThinToGain", func(t *testing.T) {
		*ops = trackerOps{}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		want, err := coloring.ThinToGain(bare, in, sinr.Bidirectional, powers, all, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coloring.ThinToGain(wrapped, in, sinr.Bidirectional, powers, all, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kept %d requests, bare engine kept %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("kept set differs at %d: %d vs %d", k, got[k], want[k])
			}
		}
		if ops.Add.Calls != n || ops.Remove.Calls != int64(n-len(got)) {
			t.Errorf("thinning did not run on the wrapped tracker: %+v", *ops)
		}
	})

	t.Run("SqrtLPColoring", func(t *testing.T) {
		*ops = trackerOps{}
		want, _, err := coloring.SqrtLPColoring(bare, in, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coloring.SqrtLPColoring(wrapped, in, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, got, want)
		if ops.CanAdd.Calls == 0 || ops.Add.Calls == 0 {
			t.Errorf("LP coloring did not run on the wrapped trackers: %+v", *ops)
		}
	})
}

// TestCountingEngineSkipsDense pins the other half of the rule: a dense
// engine stays unwrapped, because consumers would take a wrapped one for
// a tracker provider and leave the row-streaming path.
func TestCountingEngineSkipsDense(t *testing.T) {
	in, err := instance.UniformRandom(rand.New(rand.NewSource(5)), 64, 100, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	l := &layers{}
	c, err := l.build(in, power.Powers(model, in, power.Sqrt()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*affect.Cache); !ok {
		t.Fatalf("dense build returned %T, want the bare *affect.Cache", c)
	}
	if _, ok := c.(sinr.TrackerProvider); ok {
		t.Fatal("dense engine exposes a tracker provider")
	}
}

func sameSchedule(t *testing.T, got, want *problem.Schedule) {
	t.Helper()
	if scheduleHash(got) != scheduleHash(want) {
		t.Errorf("schedule differs from the bare engine's: %d vs %d colors", got.NumColors(), want.NumColors())
	}
}
