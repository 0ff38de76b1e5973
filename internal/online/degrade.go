// Overload degradation: per-event admission deadlines, admission-policy
// shedding, repair deferral, and tracker-provider retry. The ladder is
// strictly ordered — the engine gives up optimization work before it
// gives up correctness, and it never gives up the invariant that every
// slot stays SetFeasible:
//
//  1. shed admission quality: a best-fit scan that exceeds the deadline
//     degrades to first-fit for the remaining slots (take what fits,
//     stop optimizing) — counted in Stats.Shed / "engine/shed";
//  2. defer repair: a threshold/eager compaction due while the event is
//     over budget is postponed — up to repairBudget (8) deferrals — and
//     paid down by the next departure that finishes under budget;
//     counted in Stats.DeferredRepairs / "engine/deferred_repairs";
//  3. retry acquisition: a tracker provider that transiently fails is
//     retried with exponential backoff (WithRetry) — counted in
//     Stats.Retries / "engine/retries" — and only after the budget is
//     exhausted does Arrive reject with ErrTrackerUnavailable, leaving
//     state untouched.
//
// All of it is opt-in: with no deadline and no retry configured the
// event path is byte-for-byte the pre-hardening one plus a single
// predictable branch (pinned by BenchmarkOnlineChurn's <2% gate).
package online

import "time"

// WithDeadline sets the per-event admission deadline: an Arrive or
// Depart that runs longer than d starts shedding optimization work (see
// the package ladder above). Zero (the default) disables the deadline
// and its clock reads entirely. Negative values are rejected by New.
func WithDeadline(d time.Duration) Option { return func(e *Engine) { e.deadline = d } }

// WithRetry bounds the retry-with-backoff loop around transient tracker
// provider failures: up to attempts extra NewSetTracker calls, sleeping
// backoff before the first retry and doubling it each time. The default
// (0, 0) fails fast on the first nil tracker. Negative values are
// rejected by New.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(e *Engine) {
		e.retryAttempts = attempts
		e.retryBackoff = backoff
	}
}

// repairBudget bounds how many consecutive compaction passes may be
// deferred under latency pressure before one runs regardless. The bound
// keeps the deferred work from growing without limit: an overloaded
// engine compacts at least every repairBudget+1 departures that want it.
const repairBudget = 8

// BeginDrain puts the engine in draining mode: every subsequent Arrive
// is rejected with ErrDraining while departures (and their repairs)
// proceed, so the active set only shrinks. Draining is how the daemon
// shuts a session down gracefully; it is recorded in checkpoints.
func (e *Engine) BeginDrain() { e.draining = true }

// EndDrain leaves draining mode; arrivals are admitted again.
func (e *Engine) EndDrain() { e.draining = false }

// Draining reports whether the engine is in draining mode.
func (e *Engine) Draining() bool { return e.draining }

// overBudget reports whether the current event has exceeded the
// configured deadline. Only called on paths already gated on
// e.deadline > 0, where evStart is always set.
func (e *Engine) overBudget() bool {
	return time.Since(e.evStart) > e.deadline
}

// shed records one admission-quality degradation.
func (e *Engine) shed() {
	e.stats.Shed++
	e.cShed.Inc()
}
