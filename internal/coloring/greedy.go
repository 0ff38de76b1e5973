package coloring

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/affect"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// LengthOrder returns the request indices sorted by decreasing length
// (ties broken by index). Scheduling long requests first is the standard
// greedy order for SINR scheduling.
func LengthOrder(in *problem.Instance) []int {
	idx := make([]int, in.N())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return in.Length(idx[a]) > in.Length(idx[b])
	})
	return idx
}

// ErrUnschedulable is returned when a request cannot be scheduled even
// alone, which only happens with positive noise and insufficient power.
var ErrUnschedulable = errors.New("coloring: request infeasible even in its own color")

// GreedyFirstFit colors the requests in the given order (LengthOrder if nil)
// by assigning each to the first color class it fits into, opening a new
// class when none fits. The powers slice is fixed and copied into the
// schedule. Each class is a sinr.SetTracker of the engine affect.Resolve
// picks, and admission is its CanAdd: exact over the dense rows or the
// direct computation, conservative over the sparse grid — where the
// schedule may use more colors, but every class is provably feasible
// under the exact constraints.
func GreedyFirstFit(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, order []int) (*problem.Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(powers) != in.N() {
		return nil, fmt.Errorf("coloring: %d powers for %d requests", len(powers), in.N())
	}
	if order == nil {
		order = LengthOrder(in)
	}
	eng := affect.Resolve(m, v, in, powers)
	s := problem.NewSchedule(in.N())
	copy(s.Powers, powers)
	var classes []sinr.SetTracker
	for _, j := range order {
		if powers[j]/m.RequestLoss(in, j) < m.Beta*m.Noise {
			return nil, fmt.Errorf("%w: request %d", ErrUnschedulable, j)
		}
		placed := false
		for c, tr := range classes {
			if tr.CanAdd(j) {
				tr.Add(j) //oblint:fresh extending a live class the tracker already holds
				s.Colors[j] = c
				placed = true
				break
			}
		}
		if !placed {
			tr := eng.NewSetTracker(m, v)
			if !tr.CanAdd(j) {
				return nil, fmt.Errorf("%w: request %d", ErrUnschedulable, j)
			}
			tr.Add(j)
			classes = append(classes, tr)
			s.Colors[j] = len(classes) - 1
		}
	}
	return s, nil
}

// MaxFeasibleSubsetGreedy builds a single color class greedily: it scans the
// requests in the given order (LengthOrder if nil) and keeps every request
// that still fits. The result is a maximal (not maximum) feasible set, used
// as a constructive lower-bound proxy for the per-slot capacity.
func MaxFeasibleSubsetGreedy(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, order []int) []int {
	if order == nil {
		order = LengthOrder(in)
	}
	tr := affect.Resolve(m, v, in, powers).NewSetTracker(m, v)
	for _, j := range order {
		if tr.CanAdd(j) {
			tr.Add(j)
		}
	}
	out := tr.Members()
	sort.Ints(out)
	return out
}
