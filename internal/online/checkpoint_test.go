package online

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// churn drives a deterministic arrive/depart mix so checkpoints are
// taken from a state with occupied, emptied, and repaired slots.
func churn(t *testing.T, e *Engine, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		i := rng.Intn(e.N())
		if e.SlotOf(i) >= 0 {
			if err := e.Depart(i); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else if _, err := e.Arrive(i); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestCheckpointRoundTrip pins the recovery contract: serialize, parse
// back, restore, and the restored engine is bitwise the old one — same
// Snapshot, same Stats, same second Checkpoint — and both engines then
// evolve identically under further identical churn.
func TestCheckpointRoundTrip(t *testing.T) {
	in := randomInstance(t, 31, 40)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	for _, rep := range Repairs() {
		e := newEngine(t, m, in, sinr.Directed, powers,
			WithAdmission(BestFit), WithRepair(rep))
		churn(t, e, 41, 300)
		cp := e.Checkpoint()

		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		parsed, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parsed, cp) {
			t.Fatalf("%s: checkpoint did not survive serialization:\n%+v\n%+v", rep, parsed, cp)
		}

		r, err := Restore(m, in, powers, parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) {
			t.Fatalf("%s: restored snapshot differs", rep)
		}
		if r.Stats() != e.Stats() {
			t.Fatalf("%s: restored stats %+v, want %+v", rep, r.Stats(), e.Stats())
		}
		if !reflect.DeepEqual(r.Checkpoint(), cp) {
			t.Fatalf("%s: Checkpoint(Restore(cp)) != cp", rep)
		}
		checkSlots(t, r, m, in, sinr.Directed, powers)

		// Same future: identical churn must keep the engines identical.
		churn(t, e, 43, 200)
		churn(t, r, 43, 200)
		if !reflect.DeepEqual(r.Snapshot(), e.Snapshot()) || r.Stats() != e.Stats() {
			t.Fatalf("%s: engines diverged after restore", rep)
		}
	}
}

// TestReadCheckpointIgnoresThreshold pins that checkpoint files written
// while the compaction threshold was still a field — they carry a
// "threshold" key — still decode and restore.
func TestReadCheckpointIgnoresThreshold(t *testing.T) {
	in := randomInstance(t, 31, 40)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	old := `{"version": 1, "n": 40, "variant": "directed", "admission": "best-fit",
		"repair": "threshold", "threshold": 0.25, "slots": [[3, 7], [], [12]], "stats": {}}`
	cp, err := ReadCheckpoint(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(m, in, powers, cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSlots() != 3 || r.Len() != 3 || r.SlotOf(12) != 2 {
		t.Fatalf("restored %d slots, %d active, request 12 in slot %d", r.NumSlots(), r.Len(), r.SlotOf(12))
	}
}

// TestCheckpointDraining pins that the drain flag survives the round
// trip: a restored draining engine keeps rejecting arrivals.
func TestCheckpointDraining(t *testing.T) {
	in := randomInstance(t, 37, 10)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	e := newEngine(t, m, in, sinr.Bidirectional, powers)
	if _, err := e.Arrive(0); err != nil {
		t.Fatal(err)
	}
	e.BeginDrain()
	r, err := Restore(m, in, powers, e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Draining() {
		t.Fatal("drain flag lost in round trip")
	}
	if _, err := r.Arrive(1); !errors.Is(err, ErrDraining) {
		t.Fatalf("restored draining engine admitted an arrival: %v", err)
	}
	if err := r.Depart(0); err != nil {
		t.Fatalf("restored draining engine refused a departure: %v", err)
	}
}

// TestRestoreRejectsBadCheckpoints walks the validation ladder: every
// corruption fails with ErrBadCheckpoint and a message naming the
// problem, instead of resurrecting a broken engine.
func TestRestoreRejectsBadCheckpoints(t *testing.T) {
	in := randomInstance(t, 43, 8)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	e := newEngine(t, m, in, sinr.Bidirectional, powers)
	for i := 0; i < 4; i++ {
		if _, err := e.Arrive(i); err != nil {
			t.Fatal(err)
		}
	}
	good := e.Checkpoint()

	cases := []struct {
		name    string
		corrupt func(cp *Checkpoint)
		msg     string
	}{
		{"version", func(cp *Checkpoint) { cp.Version = 99 }, "version"},
		{"size", func(cp *Checkpoint) { cp.N = 7 }, "requests"},
		{"variant", func(cp *Checkpoint) { cp.Variant = "diagonal" }, "variant"},
		{"admission", func(cp *Checkpoint) { cp.Admission = "psychic" }, "admission"},
		{"repair", func(cp *Checkpoint) { cp.Repair = "duct-tape" }, "repair"},
		{"member range", func(cp *Checkpoint) { cp.Slots[0][0] = 99 }, "out of range"},
		{"duplicate member", func(cp *Checkpoint) {
			cp.Slots = append(cp.Slots, []int{cp.Slots[0][0]})
		}, "appears in slots"},
	}
	for _, tc := range cases {
		cp := *good
		cp.Slots = make([][]int, len(good.Slots))
		for s := range good.Slots {
			cp.Slots[s] = append([]int(nil), good.Slots[s]...)
		}
		tc.corrupt(&cp)
		_, err := Restore(m, in, powers, &cp)
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s: got %v, want ErrBadCheckpoint", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %q does not name the problem (%q)", tc.name, err, tc.msg)
		}
	}

	if _, err := Restore(m, in, powers, nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil checkpoint: got %v", err)
	}
	if _, err := ReadCheckpoint(strings.NewReader("{not json")); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("garbage input: got %v", err)
	}
}

// TestRestoreRejectsInfeasibleSlot pins the feasibility re-proof with a
// deterministic impossibility: a zero-distance request pair (shared
// node, mutual affectance +Inf) can never share a slot, so a checkpoint
// claiming they do must be refused.
func TestRestoreRejectsInfeasibleSlot(t *testing.T) {
	l, err := geom.NewLine([]float64{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	e := newEngine(t, m, in, sinr.Bidirectional, powers)
	for i := 0; i < 2; i++ {
		if _, err := e.Arrive(i); err != nil {
			t.Fatal(err)
		}
	}
	cp := e.Checkpoint()
	cp.Slots = [][]int{{0, 1}}
	_, err = Restore(m, in, powers, cp)
	if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("infeasible checkpoint slot: got %v, want ErrBadCheckpoint naming infeasibility", err)
	}
}

// TestRestoreOptionOverride pins option composition: explicit options
// are applied on top of the checkpointed configuration and take effect
// from the next event.
func TestRestoreOptionOverride(t *testing.T) {
	in := randomInstance(t, 47, 20)
	m := sinr.Default()
	powers := power.Powers(m, in, power.Sqrt())
	e := newEngine(t, m, in, sinr.Directed, powers, WithRepair(LazyRepair))
	churn(t, e, 53, 100)
	r, err := Restore(m, in, powers, e.Checkpoint(), WithRepair(EagerRepair))
	if err != nil {
		t.Fatal(err)
	}
	if r.repair != EagerRepair {
		t.Fatalf("override ignored: repair = %v", r.repair)
	}
	churn(t, r, 59, 100)
	checkSlots(t, r, m, in, sinr.Directed, powers)
}
