// Package online is the dynamic scheduling engine: it maintains a
// feasible multi-slot SINR schedule under a stream of request arrivals
// and departures, paying O(active) row operations per event instead of
// the O(n²·colors) of re-running a batch solver.
//
// The paper's algorithms (Fanghänel, Kesselheim, Räcke, Vöcking,
// PODC 2009) are batch: all requests are known up front and colored once.
// A deployed MAC layer sees the opposite regime — continuous churn — and
// this package closes that gap on top of the incremental machinery of
// package affect: the Engine keeps one sinr.SetTracker per slot (color)
// from the engine affect.Resolve picks — the precomputed dense matrices
// or a sparse grid engine the model carries, else the matrix-free direct
// engine — so admission probes, departures, and repair migrations are
// all incremental accumulator updates.
//
// Three admission policies decide where an arrival lands (FirstFit,
// BestFit, PowerFit — the last preserving the longest-first discipline of
// the paper's square-root assignment per slot), and three repair
// strategies decide how hard the engine works to shrink the schedule when
// departures empty slots out (LazyRepair, ThresholdRepair, EagerRepair).
// Every combination maintains the invariant that each slot passes its
// tracker's SetFeasible after every event.
//
// The subpackage sim generates churn traces (Poisson, bursty, adversarial
// replay) and replays them against an Engine, producing per-event latency
// and slot-count time series. The public registry exposes the engine as
// the "online" solver with WithAdmission / WithRepair options.
package online
