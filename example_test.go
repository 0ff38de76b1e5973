package oblivious_test

import (
	"context"
	"fmt"

	oblivious "repro"
)

// Solvers are looked up by name and configured with functional options;
// the Result carries the schedule and unified statistics.
func ExampleLookup() {
	points := [][]float64{
		{0, 0}, {3, 0},
		{1, 1}, {1, 5},
		{40, 40}, {42, 40},
		{41, 45}, {41, 41},
	}
	reqs := []oblivious.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}}
	in, err := oblivious.NewEuclideanInstance(points, reqs)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := oblivious.Lookup("greedy").Solve(context.Background(), oblivious.DefaultModel(), in,
		oblivious.WithAssignment(oblivious.Sqrt()),
		oblivious.WithValidation(true))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("solver:", res.Solver, "colors:", res.Stats.Colors)
	// Output:
	// solver: greedy colors: 2
}

// SolveAll fans a batch of instances out across a worker pool.
func ExampleSolveAll() {
	var instances []*oblivious.Instance
	for i := 0; i < 4; i++ {
		in, err := oblivious.NewLineInstance(
			[]float64{0, 1, 50, 51, 200, 202},
			[]oblivious.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}},
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		instances = append(instances, in)
	}
	results, err := oblivious.SolveAll(context.Background(), oblivious.DefaultModel(),
		instances, oblivious.Lookup("greedy"), oblivious.WithParallelism(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("solved:", len(results), "colors:", results[0].Stats.Colors)
	// Output:
	// solved: 4 colors: 1
}

// Four full-duplex links: two contended pairs near the origin and two far
// away. The square root assignment schedules them in two slots.
func ExampleLookup_greedy() {
	points := [][]float64{
		{0, 0}, {3, 0},
		{1, 1}, {1, 5},
		{40, 40}, {42, 40},
		{41, 45}, {41, 41},
	}
	reqs := []oblivious.Request{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}}
	in, err := oblivious.NewEuclideanInstance(points, reqs)
	if err != nil {
		fmt.Println(err)
		return
	}
	m := oblivious.DefaultModel()
	res, err := oblivious.Lookup("greedy").Solve(context.Background(), m, in,
		oblivious.WithVariant(oblivious.Bidirectional), oblivious.WithAssignment(oblivious.Sqrt()))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("colors:", res.Schedule.NumColors())
	fmt.Println("valid:", oblivious.Validate(m, in, oblivious.Bidirectional, res.Schedule) == nil)
	// Output:
	// colors: 2
	// valid: true
}

// The optimal-power oracle decides whether a set of requests fits in one
// time slot with unconstrained powers — the predicate the paper's theorems
// quantify over.
func ExampleSingleSlotFeasible() {
	in, err := oblivious.NewLineInstance(
		[]float64{0, 1, 100, 101},
		[]oblivious.Request{{U: 0, V: 1}, {U: 2, V: 3}},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	ok, _, err := oblivious.SingleSlotFeasible(oblivious.DefaultModel(), in, oblivious.Directed, []int{0, 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("one slot:", ok)
	// Output:
	// one slot: true
}

// Oblivious power assignments map a request's own loss to its power.
func ExampleSqrt() {
	a := oblivious.Sqrt()
	fmt.Println(a.Name(), a.Power(64))
	// Output:
	// sqrt 8
}

// Instances round-trip through JSON for use with the CLI tools.
func ExampleMarshalInstance() {
	in, err := oblivious.NewLineInstance([]float64{0, 2}, []oblivious.Request{{U: 0, V: 1}})
	if err != nil {
		fmt.Println(err)
		return
	}
	data, err := oblivious.MarshalInstance(in)
	if err != nil {
		fmt.Println(err)
		return
	}
	back, err := oblivious.UnmarshalInstance(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("requests:", back.N(), "length:", back.Length(0))
	// Output:
	// requests: 1 length: 2
}
