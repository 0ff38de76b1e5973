package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/coloring"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/powerctl"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// greedyOptimalColors colors the instance by first-fit where class
// feasibility is decided by the optimal power-control oracle: an upper
// bound on the optimal schedule length that serves as the non-oblivious
// baseline of Theorem 1's comparison.
func greedyOptimalColors(m sinr.Model, in *problem.Instance, v sinr.Variant) (int, error) {
	order := coloring.LengthOrder(in)
	var classes [][]int
	for _, j := range order {
		placed := false
		for c := range classes {
			cand := append(append([]int(nil), classes[c]...), j)
			res, err := powerctl.Feasible(m, in, v, cand)
			if err != nil {
				return 0, err
			}
			if res.Feasible {
				classes[c] = cand
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{j})
		}
	}
	return len(classes), nil
}

// E1DirectedLowerBound reproduces Theorem 1: on the adversarial family
// built against an oblivious assignment f, scheduling with f needs a
// number of colors growing linearly in n, while the optimal power
// assignment stays at O(1) colors. Bounded assignments (uniform) use the
// nested exponential family, the standard Ω(n) instance for them.
func E1DirectedLowerBound(cfg Config) (*Table, error) {
	m := sinr.Default()
	t := &Table{
		ID:    "E1",
		Title: "Theorem 1: directed scheduling with an oblivious assignment vs optimal powers",
		Columns: []string{
			"assignment", "family", "n", "colors(f)", "maxSlot(f)", "colors(opt)",
		},
		Notes: []string{
			"expected shape: colors(f) grows ~linearly in n; colors(opt) stays O(1)",
			"the sqrt adversarial family grows doubly exponentially and exhausts float64 around n≈6 (coordinates ~1e60); rows stop there",
		},
	}
	type fam struct {
		a      power.Assignment
		family string
	}
	fams := []fam{
		{a: power.Uniform(1), family: "nested"},
		{a: power.Linear(), family: "adversarial"},
		{a: power.Sqrt(), family: "adversarial"},
		{a: power.Exponent(2), family: "adversarial"},
	}
	sizes := cfg.sizes([]int{4, 8, 16, 32, 48}, []int{4, 8})
	for _, f := range fams {
		seenN := make(map[int]bool)
		for _, n := range sizes {
			var in *problem.Instance
			switch f.family {
			case "nested":
				inst, err := instance.NestedExponential(n, 2)
				if err != nil {
					return nil, err
				}
				in = inst
			default:
				adv, err := instance.AdversarialDirected(m, f.a, n, 1e60)
				if err != nil {
					return nil, err
				}
				in = adv.Instance
			}
			if seenN[in.N()] {
				continue // construction capped below the requested n
			}
			seenN[in.N()] = true
			powers := power.Powers(m, in, f.a)
			s, err := coloring.GreedyFirstFit(m, in, sinr.Directed, powers, nil)
			if err != nil {
				return nil, err
			}
			maxSlot := len(coloring.MaxFeasibleSubsetGreedy(m, in, sinr.Directed, powers, nil))
			opt, err := greedyOptimalColors(m, in, sinr.Directed)
			if err != nil {
				return nil, err
			}
			t.AddRow(f.a.Name(), f.family, Itoa(in.N()), Itoa(s.NumColors()), Itoa(maxSlot), Itoa(opt))
		}
	}
	return t, nil
}

// E2NestedSingleSlot reproduces the intuition of Section 1.2 on the nested
// instance u_i = -2^i, v_i = 2^i (bidirectional): uniform and linear powers
// schedule only O(1) requests simultaneously while the square root
// assignment schedules a constant fraction.
func E2NestedSingleSlot(cfg Config) (*Table, error) {
	m := sinr.Default()
	t := &Table{
		ID:      "E2",
		Title:   "Section 1.2: max simultaneous nested requests (bidirectional, single slot)",
		Columns: []string{"n", "uniform", "linear", "sqrt", "sqrt LP", "sqrt fraction"},
		Notes: []string{
			"sqrt LP: the one-shot LP capacity maximizer (algorithm A) under sqrt powers",
			"expected shape: uniform/linear columns stay O(1); the sqrt columns grow linearly in n",
		},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	sizes := cfg.sizes([]int{8, 16, 32, 64, 128, 256}, []int{8, 32})
	for _, n := range sizes {
		in, err := instance.NestedExponential(n, 2)
		if err != nil {
			return nil, err
		}
		counts := make(map[string]int)
		for _, a := range []power.Assignment{power.Uniform(1), power.Linear(), power.Sqrt()} {
			powers := power.Powers(m, in, a)
			set := coloring.MaxFeasibleSubsetGreedy(m, in, sinr.Bidirectional, powers, nil)
			if !m.SetFeasible(in, sinr.Bidirectional, powers, set) {
				return nil, fmt.Errorf("experiment: infeasible greedy subset for %s", a.Name())
			}
			counts[a.Name()] = len(set)
		}
		lpSet, err := coloring.MaxFeasibleSubsetLP(m, in, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(Itoa(n),
			Itoa(counts["uniform"]), Itoa(counts["linear"]), Itoa(counts["sqrt"]),
			Itoa(len(lpSet)),
			Ftoa(float64(counts["sqrt"])/float64(n), 2))
	}
	return t, nil
}

// randomWorkload draws one of the two standard bidirectional workloads.
func randomWorkload(rng *rand.Rand, kind string, n int) (*problem.Instance, error) {
	switch kind {
	case "uniform":
		return instance.UniformRandom(rng, n, 300, 1, 8)
	case "clustered":
		return instance.Clustered(rng, n, 1+n/16, 20, 300, 1)
	default:
		return nil, fmt.Errorf("experiment: unknown workload %q", kind)
	}
}
