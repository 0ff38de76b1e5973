package faultinject

import (
	"repro/internal/affect"
	"repro/internal/sinr"
)

// Cache wraps an affectance engine as a fault-injecting one. Everything
// but the tracker factory passes through to the engine untouched — the
// faults live in the tracker machinery, where the online engine spends
// its time:
//
//   - NewSetTracker consults the injector and transiently returns nil
//     (a failure burst), exercising the engine's retry-with-backoff and
//     the ErrTrackerUnavailable path past it;
//   - the trackers it does hand out are wrapped so that every hot
//     operation (CanAdd, AddMargin, Add, Remove, Margin, SetFeasible)
//     may take a latency spike, exercising deadline shedding and repair
//     deferral.
//
// The wrapper is itself an affect.Engine for the inner engine's variant,
// so affect.Resolve hands it to the consumers as is.
type Cache struct {
	affect.Engine
	inj *Injector
}

// WrapCache wraps the cache with the injector's faults. The inner cache
// is taken through affect.EngineOf — a dense cache through its row
// adapter, a sparse engine as is; anything else has no tracker machinery
// to attack, and WrapCache returns nil.
func WrapCache(inner sinr.Cache, inj *Injector) *Cache {
	eng := affect.EngineOf(inner)
	if eng == nil || inj == nil {
		return nil
	}
	return &Cache{Engine: eng, inj: inj}
}

// NewSetTracker implements sinr.TrackerProvider: it consults the
// injector first (an armed injector may fail the call, modelling a
// transient allocation or backend failure), then builds the inner
// engine's tracker and wraps it with the injector's latency faults. It
// returns nil on an injected failure or an inner-engine refusal.
func (c *Cache) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	if c.inj.failTracker() {
		return nil
	}
	tr := c.Engine.NewSetTracker(m, v)
	if tr == nil {
		return nil
	}
	return &Tracker{inner: tr, inj: c.inj}
}

// Tracker wraps a sinr.SetTracker with the injector's latency faults:
// every operation on the engine's per-event critical path may take a
// spike. Pure bookkeeping accessors (Len, At, Contains, Members) and
// Reset pass through untouched — the engine calls them outside the
// margin arithmetic the deadline ladder guards.
type Tracker struct {
	inner sinr.SetTracker
	inj   *Injector
}

// Len delegates to the wrapped tracker.
func (t *Tracker) Len() int { return t.inner.Len() }

// At delegates to the wrapped tracker.
func (t *Tracker) At(k int) int { return t.inner.At(k) }

// Contains delegates to the wrapped tracker.
func (t *Tracker) Contains(i int) bool { return t.inner.Contains(i) }

// Members delegates to the wrapped tracker.
func (t *Tracker) Members() []int { return t.inner.Members() }

// Reset delegates to the wrapped tracker.
func (t *Tracker) Reset() { t.inner.Reset() }

// Add delegates to the wrapped tracker, possibly after a latency spike.
func (t *Tracker) Add(i int) { t.inj.maybeLatency(); t.inner.Add(i) }

// Remove delegates to the wrapped tracker, possibly after a latency
// spike.
func (t *Tracker) Remove(i int) { t.inj.maybeLatency(); t.inner.Remove(i) }

// Margin delegates to the wrapped tracker, possibly after a latency
// spike.
func (t *Tracker) Margin(i int) float64 { t.inj.maybeLatency(); return t.inner.Margin(i) }

// AddMargin delegates to the wrapped tracker, possibly after a latency
// spike.
func (t *Tracker) AddMargin(i int) float64 { t.inj.maybeLatency(); return t.inner.AddMargin(i) }

// CanAdd delegates to the wrapped tracker, possibly after a latency
// spike.
func (t *Tracker) CanAdd(i int) bool { t.inj.maybeLatency(); return t.inner.CanAdd(i) }

// SetFeasible delegates to the wrapped tracker, possibly after a
// latency spike.
func (t *Tracker) SetFeasible() bool { t.inj.maybeLatency(); return t.inner.SetFeasible() }

// WorstMargin delegates to the wrapped tracker.
func (t *Tracker) WorstMargin() (float64, int) { return t.inner.WorstMargin() }
