// Package treestar implements the reduction from tree metrics to star
// metrics (Lemma 9 of the paper) by centroid decomposition, and composes
// it with the tree embeddings of package hst and the star analysis of
// package star into the full constructive pipeline behind Theorem 2: from
// a general metric, extract a large set of requests that is feasible in
// one color under the square root power assignment.
//
// Exported entry points:
//
//   - SelectOnTree realizes Lemma 9 on an HST (hst.Embedding): centroid
//     recursion over its explicit tree, one star selection (Lemma 5) per
//     level, and the final check at the target gain, which lives in hst
//     (Embedding.Repair). TreeOptions.Faithful switches between the
//     paper's worst-case star selection and the practical greedy variant.
//   - Pipeline chains the stages of Theorem 2: pair→node-loss splitting
//     (package nodeloss, Section 3.2), HST ensemble and best-core tree
//     (package hst, Lemma 6/Proposition 7), SelectOnTree, and a final
//     ThinToGain back in the original metric (Proposition 3). Run
//     extracts one color class with per-stage PipelineStats;
//     Coloring/ColoringWithStats iterate it into a complete schedule.
//     The final thinning stage builds an affectance engine for large
//     kept sets; Pipeline.Engine chooses how — the exact dense cache by
//     default, the sparse grid or the matrix-free direct engine via the
//     solver layer — and the thinning consumes any of them through
//     sinr.SetTracker.
package treestar
