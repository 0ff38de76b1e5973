package gridsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/coloring"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/sinr"
)

func TestScheduleValid(t *testing.T) {
	m := sinr.Default()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(1)), 50, 300, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Schedule(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Fatal("incomplete schedule")
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, s); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestScheduleRejectsNonEuclidean(t *testing.T) {
	m := sinr.Default()
	in, err := instance.NestedExponential(4, 2) // a line instance
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Schedule(m, in); err == nil {
		t.Error("line instances should be rejected")
	}
}

func TestScheduleInvalidModel(t *testing.T) {
	in, err := instance.UniformRandom(rand.New(rand.NewSource(1)), 5, 100, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Schedule(sinr.Model{Alpha: 0, Beta: 1}, in); err == nil {
		t.Error("invalid model should be rejected")
	}
}

func TestLengthClassesCoverAll(t *testing.T) {
	in, err := instance.UniformRandom(rand.New(rand.NewSource(2)), 40, 300, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	classes := lengthClasses(in)
	seen := make(map[int]bool)
	for _, class := range classes {
		var lo, hi float64
		for _, i := range class {
			if seen[i] {
				t.Fatalf("request %d in two classes", i)
			}
			seen[i] = true
			l := in.Length(i)
			if lo == 0 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if hi > 2*lo*(1+1e-9) {
			t.Errorf("class spans lengths [%g, %g], ratio above 2", lo, hi)
		}
	}
	if len(seen) != in.N() {
		t.Errorf("classes cover %d of %d", len(seen), in.N())
	}
}

// TestGridValidityProperty: the grid scheduler always produces valid
// schedules on random workloads, and it never beats the conflict-clique
// lower bound.
func TestGridValidityProperty(t *testing.T) {
	m := sinr.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, err := instance.UniformRandom(r, 8+r.Intn(40), 250, 1, 8)
		if err != nil {
			return false
		}
		s, err := Schedule(m, in)
		if err != nil {
			return false
		}
		if m.CheckSchedule(in, sinr.Bidirectional, s) != nil {
			return false
		}
		powers := power.Powers(m, in, power.Sqrt())
		lb := coloring.CliqueLowerBound(m, in, sinr.Bidirectional, powers)
		return s.NumColors() >= lb
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(103))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestGridWorseThanGreedy documents the expected relationship: the grid
// TDMA baseline uses at least as many colors as SINR-native first-fit on
// clustered workloads (that gap is the point of the comparison).
func TestGridWorseThanGreedy(t *testing.T) {
	m := sinr.Default()
	in, err := instance.Clustered(rand.New(rand.NewSource(3)), 48, 4, 15, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Schedule(m, in)
	if err != nil {
		t.Fatal(err)
	}
	powers := power.Powers(m, in, power.Sqrt())
	greedy, err := coloring.GreedyFirstFit(m, in, sinr.Bidirectional, powers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumColors() < greedy.NumColors() {
		t.Errorf("grid %d colors beat greedy %d: unexpected on clustered workloads",
			grid.NumColors(), greedy.NumColors())
	}
}
