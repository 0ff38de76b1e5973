// Package sparse is the spatially-bucketed affectance engine: the memory
// face of the SINR hot path at production scale. The dense engine
// (package affect) materializes n×n float64 matrices — ≈190 MB at
// n=2000 and ≈120 GB at n=50000 — while affectance decays as d^(-α), so
// at large n the overwhelming majority of entries are negligible. This
// package exploits exactly that structure.
//
// The engine buckets the request endpoints into a uniform grid of cells,
// sized for about two endpoint sites per cell, and splits every request
// pair into two regimes:
//
//   - near pairs — some endpoint cells within `rings` Chebyshev cells of
//     each other — keep their exact per-pair affectance entries, stored in
//     a CSR adjacency (bitwise identical to the dense matrix entries);
//   - far pairs are never stored: their contribution is bounded from
//     above at cell granularity, p_j/ℓ(boxdist(cell_j, cell_i)), where
//     boxdist is the minimum distance between the two cells' boxes.
//
// Because the far field is an upper bound, every margin the engine
// reports is a lower bound on the true SINR margin: a set the engine
// accepts is provably feasible under the exact constraints (the dense
// oracle), while a set it rejects may in truth have fit — the engine
// trades schedule length for O(n·k) memory, never feasibility.
//
// Epsilon, the engine's one option, is the explicit error budget of that
// trade: the near radius is derived from it so that every far-field entry
// overestimates the true affectance by at most a factor 1+ε
// (see rings()). The budget must be positive: ε=0 would keep every pair
// exact, which is the dense engine, so the solvers' engine selection
// resolves a zero budget to affect.New instead.
//
// An Engine is an affect.Engine with no matrix rows — rows are exactly
// what it refuses to materialize. Attached to a model, it reaches the
// schedulers through affect.Resolve, and they obtain from it conservative
// incremental trackers whose Add/Remove/CanAdd touch only near-cell
// neighbors plus per-cell far-field accumulators, and conservative pair
// and set bounds — the LP coloring's matrix among them.
package sparse
