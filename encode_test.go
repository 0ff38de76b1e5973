package oblivious

import (
	"context"
	"testing"
)

func TestScheduleRoundTrip(t *testing.T) {
	in := fourLinks(t)
	m := DefaultModel()
	res, err := Lookup("greedy").Solve(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	data, err := MarshalSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumColors() != s.NumColors() {
		t.Errorf("colors %d != %d", back.NumColors(), s.NumColors())
	}
	for i := range s.Colors {
		if back.Colors[i] != s.Colors[i] || back.Powers[i] != s.Powers[i] {
			t.Fatalf("request %d differs after round trip", i)
		}
	}
	if err := Validate(m, in, Bidirectional, back); err != nil {
		t.Errorf("round-tripped schedule invalid: %v", err)
	}
}

func TestScheduleCodecValidation(t *testing.T) {
	if _, err := MarshalSchedule(nil); err == nil {
		t.Error("nil schedule should fail")
	}
	if _, err := MarshalSchedule(&Schedule{Colors: []int{0}, Powers: nil}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := UnmarshalSchedule([]byte(`{`)); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := UnmarshalSchedule([]byte(`{"colors":[],"powers":[]}`)); err == nil {
		t.Error("empty schedule should fail")
	}
	if _, err := UnmarshalSchedule([]byte(`{"colors":[0],"powers":[1,2]}`)); err == nil {
		t.Error("mismatched lengths should fail")
	}
}
