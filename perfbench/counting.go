package main

import (
	"time"

	"repro/internal/affect/sparse"
	"repro/internal/sinr"
)

// opStat counts one tracker operation and the wall time spent in it.
type opStat struct {
	Calls int64
	Ns    int64
}

func (o *opStat) since(t0 time.Time) {
	o.Calls++
	o.Ns += time.Since(t0).Nanoseconds()
}

// meanNs is the mean latency of one call, 0 without calls.
func (o opStat) meanNs() float64 {
	if o.Calls == 0 {
		return 0
	}
	return float64(o.Ns) / float64(o.Calls)
}

// trackerOps aggregates the operations of every tracker a countingEngine
// handed out.
type trackerOps struct {
	CanAdd, AddMargin, Margin, Add, Remove opStat
	// Accepted counts CanAdd calls that answered true.
	Accepted int64
}

// countingEngine is a sparse engine whose trackers count and time their
// operations. Embedding forwards everything the consumers look for by
// type assertion — Covers, the row accessors, Signals/Losses, PairBound,
// InterferenceBound — so every consumer takes the same code path as over
// the bare engine; only NewSetTracker is intercepted. Only sparse engines
// are wrapped: a dense affect.Cache wrapped this way would turn into a
// tracker provider and flip greedy from row streaming to the tracked loop.
type countingEngine struct {
	*sparse.Engine
	ops *trackerOps
}

// NewSetTracker implements sinr.TrackerProvider.
func (e countingEngine) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	tr := e.Engine.NewSetTracker(m, v)
	if tr == nil {
		return nil
	}
	return &countingTracker{SetTracker: tr, ops: e.ops}
}

// countingTracker forwards to the engine's tracker, timing the five
// operations the schedulers drive.
type countingTracker struct {
	sinr.SetTracker
	ops *trackerOps
}

func (t *countingTracker) CanAdd(i int) bool {
	t0 := time.Now()
	ok := t.SetTracker.CanAdd(i)
	t.ops.CanAdd.since(t0)
	if ok {
		t.ops.Accepted++
	}
	return ok
}

func (t *countingTracker) AddMargin(i int) float64 {
	t0 := time.Now()
	mg := t.SetTracker.AddMargin(i)
	t.ops.AddMargin.since(t0)
	return mg
}

func (t *countingTracker) Margin(i int) float64 {
	t0 := time.Now()
	mg := t.SetTracker.Margin(i)
	t.ops.Margin.since(t0)
	return mg
}

func (t *countingTracker) Add(i int) {
	t0 := time.Now()
	t.SetTracker.Add(i)
	t.ops.Add.since(t0)
}

func (t *countingTracker) Remove(i int) {
	t0 := time.Now()
	t.SetTracker.Remove(i)
	t.ops.Remove.since(t0)
}
