package affect

import (
	"repro/internal/problem"
	"repro/internal/sinr"
)

// Engine is the one face every feasibility consumer drives: a factory for
// sinr.SetTracker plus per-pair and per-set interference queries, all for
// the variant the engine serves. The queries are exact for the exact
// engines (Rows over the dense matrices, Direct) and conservative upper
// bounds for the sparse grid engine, so a set a consumer accepts through
// them is feasible under the exact constraints either way.
type Engine interface {
	sinr.Cache
	sinr.TrackerProvider
	// Variant returns the SINR variant the engine serves.
	Variant() sinr.Variant
	// Signals returns p_i/ℓ_i for every request: the received signal
	// strength at a request's own endpoint, bitwise the model's.
	Signals() []float64
	// PairBound returns the affectance request j adds at request i's
	// constraint node(s) — or an upper bound on it — for j ≠ i: the
	// receiver's value first for the directed variant (the second is
	// zero), the U and V endpoint values for the bidirectional one.
	PairBound(i, j int) (b1, b2 float64)
	// InterferenceBound returns the summed PairBound of the requests of
	// set other than i, accumulated in set order.
	InterferenceBound(set []int, i int) (b1, b2 float64)
}

// EngineOf returns the Engine face of an attached affectance cache: the
// cache itself when it already is one (the sparse engine, or a wrapper of
// one), the Rows adapter for a dense Cache, and nil for anything else.
func EngineOf(c sinr.Cache) Engine {
	switch e := c.(type) {
	case Engine:
		return e
	case *Cache:
		return Rows{e}
	}
	return nil
}

// Resolve returns the feasibility engine for variant v over (in, powers):
// the engine the model carries for them (see EngineOf) when it serves v,
// and a new matrix-free Direct engine otherwise. It is the one place
// coverage and variants are checked — once per call, so the O(n) powers
// comparison stays off every hot path — and every consumer then drives
// the result through sinr.SetTracker and the Engine queries.
func Resolve(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) Engine {
	if e := EngineOf(m.CacheFor(in, powers)); e != nil && e.Variant() == v {
		return e
	}
	return NewDirect(m, v, in, powers)
}

// Rows serves a dense Cache as an Engine for the variant it was built
// for: its trackers are the exact Tracker, and its pair and set queries
// read the matrix entries, so every value is bitwise the one the rows
// hold.
type Rows struct{ *Cache }

// NewSetTracker implements sinr.TrackerProvider: an exact Tracker over the
// matrices, or nil when v or the model's path-loss exponent is not the
// one the cache was built for.
func (r Rows) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	if v != r.v || m.Alpha != r.alpha {
		return nil
	}
	return NewTracker(m, v, r.Cache)
}

// PairBound returns the matrix entries (i, j): the exact affectance
// request j adds at request i's constraint node(s).
func (r Rows) PairBound(i, j int) (b1, b2 float64) {
	k := i*r.n + j
	if r.v == sinr.Directed {
		return r.dInto[k], 0
	}
	return r.uInto[k], r.vInto[k]
}

// InterferenceBound sums row i over the requests of set other than i, in
// set order — bitwise the model's interference queries.
func (r Rows) InterferenceBound(set []int, i int) (b1, b2 float64) {
	if r.v == sinr.Directed {
		row := r.DirectedInto(i)
		for _, j := range set {
			if j != i {
				b1 += row[j]
			}
		}
		return b1, 0
	}
	rowU, rowV := r.IntoU(i), r.IntoV(i)
	for _, j := range set {
		if j != i {
			b1 += rowU[j]
			b2 += rowV[j]
		}
	}
	return b1, b2
}
