// Package oblivious is a Go implementation of the algorithms and lower
// bounds from "Oblivious Interference Scheduling" (Fanghänel, Kesselheim,
// Räcke, Vöcking — PODC 2009).
//
// The interference scheduling problem asks, for n communication requests
// given as pairs of points in a metric space, for a transmission power and
// a color (time slot) per request such that all requests of a color can
// communicate simultaneously under the physical (SINR) interference model,
// minimizing the number of colors. The package provides:
//
//   - the SINR model with directed and bidirectional constraint variants;
//   - oblivious power assignments (uniform, linear, square root, ℓ^τ);
//   - greedy first-fit scheduling under any power assignment;
//   - the randomized LP-based O(log n)-approximation for coloring under the
//     square root assignment (Theorem 15);
//   - the constructive Theorem 2 pipeline (tree embeddings → centroid stars
//     → subset selection) certifying the polylog performance of the square
//     root assignment for bidirectional requests;
//   - single-slot feasibility oracles under optimal (non-oblivious) power
//     control, used as the baseline the paper compares against;
//   - workload generators, including the adversarial Ω(n) family from the
//     proof of Theorem 1;
//   - an online scheduling engine (internal/online) that maintains a
//     feasible schedule under request arrivals and departures, exposed as
//     the "online" solver with WithAdmission / WithRepair options.
//
// Every algorithm is a Solver, registered by name (greedy, lp, online,
// pipeline, distributed) and configured with functional options. Quick
// start:
//
//	m := oblivious.DefaultModel()
//	in, _ := oblivious.NewEuclideanInstance(points, reqs)
//	res, _ := oblivious.Lookup("greedy").Solve(ctx, m, in,
//		oblivious.WithAssignment(oblivious.Sqrt()),
//		oblivious.WithValidation(true))
//	fmt.Println(res.Stats.Colors)
//
// Randomized solvers take a seed, and batches of instances fan out over a
// worker pool:
//
//	res, _ := oblivious.Lookup("lp").Solve(ctx, m, in, oblivious.WithSeed(7))
//	all, _ := oblivious.SolveAll(ctx, m, instances, oblivious.Lookup("pipeline"),
//		oblivious.WithParallelism(8))
//
// Solvers(), Register and ParseAssignment round out the registry: CLIs
// resolve -algo and -power flags through them, and external packages can
// register additional solvers.
package oblivious

import (
	"math/rand"

	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/powerctl"
	"repro/internal/problem"
	"repro/internal/sinr"
	"repro/internal/treestar"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Model carries the physical model parameters α (path-loss exponent),
	// β (gain) and ν (noise).
	Model = sinr.Model
	// Variant selects directed or bidirectional SINR constraints.
	Variant = sinr.Variant
	// Request is a communication request between two nodes.
	Request = problem.Request
	// Instance is a set of requests over a metric space.
	Instance = problem.Instance
	// Schedule assigns a power and a color to every request.
	Schedule = problem.Schedule
	// Assignment is an oblivious power assignment.
	Assignment = power.Assignment
	// LPStats reports diagnostics of the LP-based coloring.
	LPStats = coloring.LPStats
	// PipelineStats reports diagnostics of the Theorem 2 pipeline.
	PipelineStats = treestar.PipelineStats
	// OnlineStats reports the churn-engine counters of the online solver.
	OnlineStats = online.Stats
)

// SINR constraint variants.
const (
	// Directed: dedicated sender and receiver per request.
	Directed = sinr.Directed
	// Bidirectional: both endpoints must be able to receive.
	Bidirectional = sinr.Bidirectional
)

// DefaultModel returns the parameters used throughout the experiments:
// path-loss exponent α = 3, gain β = 1, noise ν = 0.
func DefaultModel() Model { return sinr.Default() }

// Uniform returns the uniform power assignment with power p.
func Uniform(p float64) Assignment { return power.Uniform(p) }

// Linear returns the linear power assignment p_i = ℓ_i.
func Linear() Assignment { return power.Linear() }

// Sqrt returns the square root power assignment p̄_i = √ℓ_i (Theorem 2's
// universally good oblivious assignment for bidirectional requests).
func Sqrt() Assignment { return power.Sqrt() }

// Exponent returns the power assignment p_i = ℓ_i^τ.
func Exponent(tau float64) Assignment { return power.Exponent(tau) }

// NewEuclideanInstance builds an instance over points in R^d. Each request
// references two point indices.
func NewEuclideanInstance(points [][]float64, reqs []Request) (*Instance, error) {
	space, err := geom.NewEuclidean(points)
	if err != nil {
		return nil, err
	}
	return problem.New(space, reqs)
}

// NewLineInstance builds an instance over points on the real line.
func NewLineInstance(coords []float64, reqs []Request) (*Instance, error) {
	space, err := geom.NewLine(coords)
	if err != nil {
		return nil, err
	}
	return problem.New(space, reqs)
}

// NewMatrixInstance builds an instance over an explicit distance matrix
// (any finite metric space).
func NewMatrixInstance(dist [][]float64, reqs []Request) (*Instance, error) {
	space, err := geom.NewMatrix(dist)
	if err != nil {
		return nil, err
	}
	return problem.New(space, reqs)
}

// PowersFor evaluates an oblivious assignment on every request.
func PowersFor(m Model, in *Instance, a Assignment) []float64 {
	return power.Powers(m, in, a)
}

// ScheduleGreedyPowers colors the instance by greedy first-fit under an
// arbitrary per-request power vector.
func ScheduleGreedyPowers(m Model, in *Instance, v Variant, powers []float64) (*Schedule, error) {
	return coloring.GreedyFirstFit(m, in, v, powers, nil)
}

// Validate checks a complete schedule against the SINR constraints and
// returns nil if it is feasible.
func Validate(m Model, in *Instance, v Variant, s *Schedule) error {
	return m.CheckSchedule(in, v, s)
}

// SingleSlotFeasible decides whether the given requests can all be
// scheduled in one time slot under optimal (non-oblivious) power control,
// returning witness powers if so. This is the baseline predicate the
// paper's theorems quantify over.
func SingleSlotFeasible(m Model, in *Instance, v Variant, set []int) (bool, []float64, error) {
	res, err := powerctl.Feasible(m, in, v, set)
	if err != nil {
		return false, nil, err
	}
	return res.Feasible, res.Powers, nil
}

// MaxSimultaneous greedily builds a maximal set of requests that can share
// one slot under the given oblivious assignment (longest first). It is a
// constructive lower-bound proxy for per-slot capacity.
func MaxSimultaneous(m Model, in *Instance, v Variant, a Assignment) []int {
	return coloring.MaxFeasibleSubsetGreedy(m, in, v, power.Powers(m, in, a), nil)
}

// LiftToNoise scales the powers of a zero-noise feasible schedule so that
// it remains feasible at the given positive noise level (the Section 1.1
// observation made constructive). The input schedule is not modified.
func LiftToNoise(m Model, in *Instance, v Variant, s *Schedule, nu float64) (*Schedule, error) {
	return m.LiftSchedule(in, v, s, nu)
}

// MaxSimultaneousLP runs the LP-guided one-shot capacity maximizer of
// algorithm A (the building block of Theorem 15) over the whole instance
// under the square root assignment, returning a feasible single-slot set.
func MaxSimultaneousLP(m Model, in *Instance, seed int64) ([]int, error) {
	return coloring.MaxFeasibleSubsetLP(m, in, rand.New(rand.NewSource(seed)))
}
