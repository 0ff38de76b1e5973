// Package coloring implements the scheduling (coloring) algorithms of the
// paper: greedy first-fit coloring under a fixed power assignment, the
// constructive gain-scaling of Propositions 3 and 4, and the randomized
// LP-based O(log n)-approximation for the square root assignment
// (Theorem 15).
//
// Exported entry points:
//
//   - GreedyFirstFit colors requests (longest first by default, see
//     LengthOrder) into the first class they fit; MaxFeasibleSubsetGreedy
//     extracts a single maximal class.
//   - ThinToGain / ThinToGainStrategy realize Proposition 3: thin a
//     β-feasible set to a stronger gain β′, in O(|set|²) pair
//     evaluations on an incremental tracker. ColorWithGain iterates it
//     into Proposition 4's coloring.
//   - SqrtLPColoring (+Opts/+Ctx variants) is the Theorem 15 coloring for
//     the bidirectional problem under square root powers: distance
//     classes, a packing LP per class (package lp), randomized rounding,
//     repair, and a maximality pass. MaxFeasibleSubsetLP exposes one
//     round (algorithm A) as a single-slot capacity maximizer.
//   - ConflictGraph and CliqueLowerBound (lowerbound.go) build the
//     pairwise-conflict graph and its greedy clique bound — the
//     certificate experiments compare schedule lengths against.
//
// Every feasibility question — greedy admission, thinning, the LP's
// matrix, budget, conflict, repair and maximality passes — goes to the
// one engine affect.Resolve derives from the model: the dense matrices,
// the sparse grid, or the matrix-free direct engine, driven through
// sinr.SetTracker and the engine's PairBound/InterferenceBound queries.
// The exact engines agree bitwise, so a schedule does not depend on
// whether the dense or the direct engine serves it. Over the sparse
// engine the LP
// matrix holds its upper bounds, which tighten the packing LP by at most
// the engine's 1 + ε factor.
package coloring
