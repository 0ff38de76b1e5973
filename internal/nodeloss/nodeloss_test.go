package nodeloss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

func TestNewValidation(t *testing.T) {
	l, _ := geom.NewLine([]float64{0, 1, 2})
	if _, err := New(nil, []int{0}, []float64{1}); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := New(l, nil, nil); err == nil {
		t.Error("empty nodes should fail")
	}
	if _, err := New(l, []int{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := New(l, []int{9}, []float64{1}); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, err := New(l, []int{0}, []float64{0}); err == nil {
		t.Error("zero loss should fail")
	}
	nl, err := New(l, []int{0, 2}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if nl.N() != 2 || nl.Dist(0, 1) != 2 {
		t.Errorf("N=%d Dist=%g", nl.N(), nl.Dist(0, 1))
	}
}

func TestSqrtPowers(t *testing.T) {
	l, _ := geom.NewLine([]float64{0, 1})
	nl, err := New(l, []int{0, 1}, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	p := nl.SqrtPowers()
	if p[0] != 2 || p[1] != 3 {
		t.Errorf("sqrt powers = %v, want [2 3]", p)
	}
}

func TestFromPairsMapping(t *testing.T) {
	m := sinr.Default()
	in, err := instance.LineChain(3, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	nl, mapping, err := FromPairs(m, in)
	if err != nil {
		t.Fatal(err)
	}
	if nl.N() != 6 {
		t.Fatalf("active nodes = %d, want 6", nl.N())
	}
	for i := 0; i < in.N(); i++ {
		ku := mapping.NodeOfEndpoint[2*i]
		kv := mapping.NodeOfEndpoint[2*i+1]
		if mapping.PairOfNode[ku] != i || mapping.PairOfNode[kv] != i {
			t.Errorf("pair %d mapping inconsistent", i)
		}
		want := m.RequestLoss(in, i)
		if nl.Loss[ku] != want || nl.Loss[kv] != want {
			t.Errorf("pair %d loss parameters %g,%g want %g", i, nl.Loss[ku], nl.Loss[kv], want)
		}
	}
}

func TestFromPairsRejectsSharedEndpoints(t *testing.T) {
	l, _ := geom.NewLine([]float64{0, 1, 2})
	in, err := problem.New(l, []problem.Request{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FromPairs(sinr.Default(), in); err == nil {
		t.Error("shared endpoint should be rejected")
	}
}

func TestPairGainToNodeGain(t *testing.T) {
	if got := PairGainToNodeGain(1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("PairGainToNodeGain(1) = %g, want 1/3", got)
	}
	if got := PairGainToNodeGain(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PairGainToNodeGain(2) = %g, want 1/2", got)
	}
}

func TestInterferenceAndMargin(t *testing.T) {
	m := sinr.Model{Alpha: 2, Beta: 1}
	l, _ := geom.NewLine([]float64{0, 1, 3})
	nl, err := New(l, []int{0, 1, 2}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 1, 1}
	set := []int{0, 1, 2}
	// At node 0: from node 1 at distance 1 → 1; from node 2 at distance 3
	// → 1/9.
	want := 1 + 1.0/9
	if got := nl.Interference(m, p, set, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("interference = %g, want %g", got, want)
	}
	// Margin: signal 1, beta 1 → (1 - 10/9)/1 < 0.
	if mg := nl.Margin(m, 1, p, set, 0); mg >= 0 {
		t.Errorf("margin = %g, want negative", mg)
	}
	if nl.Feasible(m, 1, p, set) {
		t.Error("set should be infeasible at gain 1")
	}
	if !nl.Feasible(m, 0.1, p, set) {
		t.Error("set should be feasible at gain 0.1")
	}
}

// TestPairFeasibleImpliesNodeFeasible verifies the Section 3.2 relation:
// a set of pairs feasible with gain β yields a node split that is
// β/(2+β)-feasible under the same powers (each node inheriting its pair's
// power).
func TestPairFeasibleImpliesNodeFeasible(t *testing.T) {
	m := sinr.Default()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in, err := instance.UniformRandom(r, 3+r.Intn(10), 300, 1, 5)
		if err != nil {
			return false
		}
		powers := power.Powers(m, in, power.Sqrt())
		// Build a feasible pair set greedily.
		var set []int
		for i := 0; i < in.N(); i++ {
			cand := append(append([]int(nil), set...), i)
			if m.SetFeasible(in, sinr.Bidirectional, powers, cand) {
				set = cand
			}
		}
		if len(set) < 2 {
			return true
		}
		nl, mapping, err := FromPairs(m, in)
		if err != nil {
			return false
		}
		nodePowers := make([]float64, nl.N())
		var nodes []int
		for _, i := range set {
			for e := 0; e < 2; e++ {
				k := mapping.NodeOfEndpoint[2*i+e]
				nodePowers[k] = powers[i]
				nodes = append(nodes, k)
			}
		}
		return nl.Feasible(m, PairGainToNodeGain(m.Beta), nodePowers, nodes)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPairsWithBothEndpoints(t *testing.T) {
	m := sinr.Default()
	in, err := instance.LineChain(3, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, mapping, err := FromPairs(m, in)
	if err != nil {
		t.Fatal(err)
	}
	// Keep both endpoints of pair 0, one endpoint of pair 1, none of 2.
	nodes := []int{
		mapping.NodeOfEndpoint[0], mapping.NodeOfEndpoint[1],
		mapping.NodeOfEndpoint[2],
	}
	got := PairsWithBothEndpoints(mapping, nodes)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("pairs = %v, want [0]", got)
	}
}
