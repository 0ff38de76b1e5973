package oblivious

import (
	"context"
	"testing"
)

func TestLiftToNoiseEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	res, err := Lookup("greedy").Solve(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	lifted, err := LiftToNoise(m, in, Bidirectional, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	noisy := m
	noisy.Noise = 3
	if err := Validate(noisy, in, Bidirectional, lifted); err != nil {
		t.Errorf("lifted schedule invalid at noise 3: %v", err)
	}
	// Colors unchanged, powers scaled.
	for i := range s.Colors {
		if lifted.Colors[i] != s.Colors[i] {
			t.Fatal("lifting changed the coloring")
		}
	}
}

func TestScheduleDistributedEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	res, err := Lookup("distributed").Solve(context.Background(), m, in, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s, slots := res.Schedule, res.Stats.Slots
	if err := Validate(m, in, Bidirectional, s); err != nil {
		t.Errorf("distributed schedule invalid: %v", err)
	}
	if slots < s.NumColors() {
		t.Errorf("slots %d below colors %d", slots, s.NumColors())
	}
	// Determinism for a fixed seed.
	res2, err := Lookup("distributed").Solve(context.Background(), m, in, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s2, slots2 := res2.Schedule, res2.Stats.Slots
	if slots != slots2 {
		t.Error("distributed protocol not deterministic for a fixed seed")
	}
	for i := range s.Colors {
		if s.Colors[i] != s2.Colors[i] {
			t.Fatal("distributed coloring not deterministic for a fixed seed")
		}
	}
}

func TestMaxSimultaneousLPEndToEnd(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	set, err := MaxSimultaneousLP(m, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("empty set")
	}
	powers := PowersFor(m, in, Sqrt())
	if !m.SetFeasible(in, Bidirectional, powers, set) {
		t.Error("LP single-slot set infeasible")
	}
}
