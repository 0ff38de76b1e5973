// Package sinr implements the physical interference model used throughout
// the paper: path loss, the Signal to Interference plus Noise Ratio, and
// feasibility checks for the directed and bidirectional variants of the
// interference scheduling problem.
//
// Following Section 1.1 of the paper, the loss between nodes u and v is
// ℓ(u,v) = d(u,v)^α and a set of simultaneously transmitting requests is
// feasible if every request's SINR is at least the gain β. The paper's
// analysis sets the noise ν to zero and requires strict inequality; the
// checks here accept any ν ≥ 0 and use the relative tolerance Tol so that
// schedules produced by floating-point algorithms validate robustly.
//
// Exported entry points:
//
//   - Model carries (α, β, ν) and answers every interference question:
//     Loss/RequestLoss (with fast paths for integer exponents), Margin,
//     RequestFeasible, SetFeasible, WorstMargin, and the schedule
//     validator CheckSchedule. It is the one place the SINR constraint is
//     evaluated against an instance, always by direct computation, so it
//     is the oracle every affectance engine is checked against;
//     SignalMargin is its margin formula for consumers that sum
//     interference through an engine.
//   - Variant selects Directed (Section 1.1's sender→receiver
//     constraints) or Bidirectional (both endpoints must decode; the
//     variant Theorem 2 is about).
//   - Cache is the key under which a model carries a precomputed
//     affectance engine (package affect): Model.WithCache attaches one,
//     and affect.Resolve hands it to the consumers when it Covers their
//     (instance, powers) pair. The model's own queries never read it.
//   - SetTracker and TrackerProvider are the incremental feasibility
//     interface the engines implement and every scheduler drives.
package sinr
