// Package hst implements the tree-embedding machinery behind Lemma 6 of
// the paper (adapted from Gupta, Hajiaghayi and Räcke, "Oblivious network
// design"): randomized hierarchically separated trees in the style of
// Fakcharoenphol–Rao–Talwar whose shortest-path metric dominates the
// original metric, sampled O(log n) times so that for every node a
// constant fraction of the trees stretches all of its distances by at
// most a logarithmic factor (the node's "core" trees).
//
// Exported entry points:
//
//   - Build samples one Embedding (random permutation + random scale);
//     Embedding.Dist answers the HST metric, Embedding.ExplicitTree
//     materializes it as a geom.Tree for the centroid decomposition of
//     package treestar.
//   - BuildEnsemble samples r embeddings; Ensemble.BestCoreTree picks the
//     tree whose core covers the most nodes (Proposition 7), which is the
//     tree the Theorem 2 pipeline hands to treestar.SelectOnTree.
//   - Embedding.Repair is SelectOnTree's final check: it thins a leaf set
//     to a gain under the square root assignment in the HST metric,
//     pricing interference from per-level cluster sums instead of pair
//     distances.
//
// On a metric with coordinates (geom.Coords) the level assignment and
// the stretch scans behind cores run on a geom.Cells index instead of
// all pairs: each level's open nodes are claimed center-first by the
// centers in their adjacent cells, and a stretch scan tests only the
// pairs closer than the distance ρ beyond which no pair can exceed the
// bound. The index skips only pairs that provably fail and tests the
// rest with the metric's distance function and the scans' arithmetic,
// so every level, core and chosen tree is bitwise the scans'
// (TestCellIndexMatchesScan). Other metrics, and grids that would not
// pay, keep the scans.
package hst
