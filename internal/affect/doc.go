// Package affect is the precomputed affectance engine behind the SINR hot
// path. The physical model (package sinr) answers every interference
// question by recomputing a path loss d^α per sender/receiver pair; it is
// the oracle. The solvers instead query an Engine from this package: the
// dense one precomputes, per (instance, model, variant, powers) tuple,
// the full n×n affectance matrices — flat row-major []float64, filled on
// par.ForEach — plus the per-request signal vector, so their feasibility
// checks become array sums.
//
// The term "affectance" follows the SINR scheduling literature: entry
// (i, j) is the normalized interference request j inflicts on request i's
// constraint node(s) under the fixed powers. The paper itself
// (Fanghänel, Kesselheim, Räcke, Vöcking, PODC 2009) phrases its proofs
// in these per-pair interference terms; the engine merely materializes
// them once instead of deriving them per query.
//
// Exported entry points:
//
//   - New builds a Cache; attach it with sinr.Model.WithCache. Its
//     entries are the model's values bitwise — TestEngineBoundsMatchDense
//     and TestTrackerMatchesOracle pin its queries and trackers against
//     the model for all power variants.
//   - Tracker maintains a transmission set with running interference
//     accumulators: O(|set|) insert/remove and O(1) member margins,
//     replacing the O(|set|²) re-scan of direct set-feasibility.
//   - Direct is the matrix-free engine: the same values computed per
//     pair on demand, at O(n) memory, with a tracker of its own.
//   - Resolve is the one place consumers get their engine from: the
//     engine the model carries when it serves the requested variant (a
//     dense Cache through its Rows adapter, the sparse grid engine or a
//     wrapper of one as is), a new Direct engine otherwise. Every
//     Engine hands out sinr.SetTrackers and answers PairBound and
//     InterferenceBound, so greedy coloring, thinning, the LP passes,
//     the distributed simulator, the online engine and the fault
//     injector take one path.
package affect
