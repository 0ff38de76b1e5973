// Package geom provides finite metric spaces used by the interference
// scheduling problem: Euclidean point sets, explicit distance matrices,
// tree shortest-path metrics, and star metrics.
//
// All spaces implement the Metric interface over node indices 0..N-1.
// Distances are symmetric and non-negative; Dist(i, i) is 0. The paper
// states its results for arbitrary metrics (Section 1.1), which is why
// everything downstream is written against Metric rather than
// coordinates.
//
// Exported entry points:
//
//   - Metric is the two-method interface (N, Dist) every algorithm
//     consumes.
//   - NewEuclidean, NewLine, NewMatrix build the general-purpose spaces;
//     NewStar and NewTree build the star and tree metrics the Theorem 2
//     pipeline reduces to (packages star, treestar, hst); NewSub
//     restricts a metric to a node subset.
//   - MinDist, MaxDist, AspectRatio compute the aspect ratio Δ that the
//     grid baseline's O(log Δ) factor depends on; ValidateTriangle is the
//     O(n³) test-only sanity check.
//   - DistFunc returns a metric's distance with the interface dispatch
//     peeled off, for the O(n²) loops.
//   - Coords is the one definition of a metric with coordinates:
//     Euclidean space up to 3-D, the line, and Sub views of them, as one
//     flattened array. DistFunc's Sub evaluator, the sparse affectance
//     engine's request grid and Cells read it.
//   - Cells is a uniform grid index over such coordinates, built for
//     exact pruning: nodes outside the cells adjacent to a node's cell
//     are provably farther than the grid's reach under the metric's own
//     floating-point distance. MinDist and MaxDist use it, and so do the
//     HST level assignment and stretch scans (package hst); results stay
//     bitwise those of the all-pairs scans, which every metric without
//     coordinates keeps.
package geom
