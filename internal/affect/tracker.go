package affect

import (
	"fmt"
	"math"

	"repro/internal/sinr"
)

// exactSet is the bookkeeping the two exact trackers share: the members
// in insertion order and each member's accumulated interference, from
// which margins, set feasibility and the worst member follow in O(1) or
// O(|set|). The trackers differ only in where a pair's affectance comes
// from — a matrix row (Tracker) or the model formula (the Direct
// engine's tracker).
type exactSet struct {
	v       sinr.Variant
	beta    float64
	noise   float64
	signals []float64

	members []int // insertion order, preserved by Remove
	pos     []int // pos[i] = index into members, -1 if absent

	// acc1[i] is the running interference received by member i at its
	// constraint node (directed: the receiver; bidirectional: endpoint U).
	// acc2 is endpoint V (bidirectional only).
	acc1, acc2 []float64
}

func newExactSet(m sinr.Model, v sinr.Variant, signals []float64) exactSet {
	n := len(signals)
	s := exactSet{
		v:       v,
		beta:    m.Beta,
		noise:   m.Noise,
		signals: signals,
		pos:     make([]int, n),
		acc1:    make([]float64, n),
		acc2:    make([]float64, n),
	}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

// Len returns the current set size.
func (s *exactSet) Len() int { return len(s.members) }

// Contains reports whether request i is in the set.
func (s *exactSet) Contains(i int) bool { return s.pos[i] >= 0 }

// Members returns the current set in insertion order. The returned slice
// is a copy.
func (s *exactSet) Members() []int {
	return append([]int(nil), s.members...)
}

// At returns the k-th member in insertion order, without allocating.
func (s *exactSet) At(k int) int { return s.members[k] }

// Reset empties the set in O(|set|) without dropping the backing arrays,
// so a tracker can be recycled for a fresh set (the online engine re-packs
// slots this way instead of reallocating three O(n) vectors per re-pack).
func (s *exactSet) Reset() {
	for _, i := range s.members {
		s.pos[i] = -1
		s.acc1[i], s.acc2[i] = 0, 0
	}
	s.members = s.members[:0]
}

// insert appends request i with its own accumulated interference; the
// caller has already added i's contributions to the other members.
func (s *exactSet) insert(i int, own1, own2 float64) {
	s.acc1[i], s.acc2[i] = own1, own2
	s.pos[i] = len(s.members)
	s.members = append(s.members, i)
}

// unlink deletes request i from the member list, preserving the insertion
// order of the rest; the caller then subtracts i's contributions. It
// panics if i is not a member.
func (s *exactSet) unlink(i int) {
	p := s.pos[i]
	if p < 0 {
		panic(fmt.Sprintf("affect: Remove(%d): not a member", i))
	}
	copy(s.members[p:], s.members[p+1:])
	s.members = s.members[:len(s.members)-1]
	for k := p; k < len(s.members); k++ {
		s.pos[s.members[k]] = k
	}
	s.pos[i] = -1
	s.acc1[i], s.acc2[i] = 0, 0
}

// isFinite reports whether f is neither ±Inf nor NaN.
func isFinite(f float64) bool {
	return !math.IsInf(f, 0) && !math.IsNaN(f)
}

// margin converts accumulated interference into the normalized margin of
// the sinr package: (signal - β·(interference + noise)) / signal.
//
//oblint:hotpath
func (s *exactSet) margin(i int, interf1, interf2 float64) float64 {
	signal := s.signals[i]
	if signal == 0 {
		return math.Inf(-1)
	}
	mg := (signal - s.beta*(interf1+s.noise)) / signal
	if s.v == sinr.Bidirectional {
		if mg2 := (signal - s.beta*(interf2+s.noise)) / signal; mg2 < mg {
			mg = mg2
		}
	}
	return mg
}

// Margin returns the current SINR margin of member i in O(1), matching
// sinr.Model.Margin over the tracked set up to the accumulated
// floating-point drift of the incremental updates (≈ machine epsilon per
// insert/remove, far below the feasibility tolerance).
//
//oblint:hotpath
func (s *exactSet) Margin(i int) float64 {
	if s.pos[i] < 0 {
		panic(fmt.Sprintf("affect: Margin(%d): not a member", i))
	}
	return s.margin(i, s.acc1[i], s.acc2[i])
}

// SetFeasible reports whether every member's SINR constraint holds, in
// O(|set|).
//
//oblint:hotpath
func (s *exactSet) SetFeasible() bool {
	for _, i := range s.members {
		if s.margin(i, s.acc1[i], s.acc2[i]) < -sinr.Tol {
			return false
		}
	}
	return true
}

// WorstMargin returns the minimum margin over the members and the request
// attaining it (the earliest member on ties, matching the scan order of
// sinr.Model.WorstMargin). It returns (+Inf, -1) for an empty set.
//
//oblint:hotpath
func (s *exactSet) WorstMargin() (float64, int) {
	worst, arg := math.Inf(1), -1
	for _, i := range s.members {
		if mg := s.margin(i, s.acc1[i], s.acc2[i]); mg < worst {
			worst = mg
			arg = i
		}
	}
	return worst, arg
}

// Tracker maintains a set of simultaneously transmitting requests together
// with running interference accumulators over the dense matrices, so that
// membership queries cost O(1), insertions and removals cost O(|set|) row
// operations, and a full set-feasibility check costs O(|set|) — instead of
// the O(|set|²) re-scan of the direct computation. It is the tracker the
// Rows engine hands out.
//
// A Tracker is built over a dense Cache and the model's gain and noise;
// it is not safe for concurrent use.
type Tracker struct {
	exactSet
	c *Cache
}

var _ sinr.SetTracker = (*Tracker)(nil)

// NewTracker builds an empty tracker for the given variant over the cache.
// The model supplies the gain β and the noise ν; its path-loss exponent
// must be the one the cache was built for. It panics if the cache was
// built for the other variant.
func NewTracker(m sinr.Model, v sinr.Variant, c *Cache) *Tracker {
	if v != c.Variant() {
		panic(fmt.Sprintf("affect: %s tracker over a %s cache", v, c.Variant()))
	}
	return &Tracker{exactSet: newExactSet(m, v, c.signals), c: c}
}

// Add inserts request i, updating every member's accumulators with i's
// contribution and computing i's own accumulated interference — O(|set|)
// row operations. It panics if i is already a member.
//
//oblint:hotpath
func (t *Tracker) Add(i int) {
	if t.pos[i] >= 0 {
		panic(fmt.Sprintf("affect: Add(%d): already a member", i))
	}
	switch t.v {
	case sinr.Directed:
		from := t.c.DirectedFrom(i)
		into := t.c.DirectedInto(i)
		var own float64
		for _, k := range t.members {
			t.acc1[k] += from[k]
			own += into[k]
		}
		t.insert(i, own, 0)
	case sinr.Bidirectional:
		fromU, fromV := t.c.FromU(i), t.c.FromV(i)
		intoU, intoV := t.c.IntoU(i), t.c.IntoV(i)
		var ownU, ownV float64
		for _, k := range t.members {
			t.acc1[k] += fromU[k]
			t.acc2[k] += fromV[k]
			ownU += intoU[k]
			ownV += intoV[k]
		}
		t.insert(i, ownU, ownV)
	}
}

// Remove deletes request i, subtracting its contribution from every
// remaining member's accumulators — O(|set|). The insertion order of the
// remaining members is preserved. It panics if i is not a member.
//
//oblint:hotpath
func (t *Tracker) Remove(i int) {
	t.unlink(i)
	// Subtracting a non-finite contribution (a zero-distance pair, e.g.
	// two requests sharing a node, has affectance p/0 = +Inf) would turn
	// an Inf accumulator into NaN and silently corrupt every later
	// margin; recompute such members' accumulators from the rows instead.
	switch t.v {
	case sinr.Directed:
		from := t.c.DirectedFrom(i)
		for _, k := range t.members {
			if c := from[k]; isFinite(c) {
				t.acc1[k] -= c
			} else {
				t.acc1[k] = t.rowSum(t.c.DirectedInto(k))
			}
		}
	case sinr.Bidirectional:
		fromU, fromV := t.c.FromU(i), t.c.FromV(i)
		for _, k := range t.members {
			if c := fromU[k]; isFinite(c) {
				t.acc1[k] -= c
			} else {
				t.acc1[k] = t.rowSum(t.c.IntoU(k))
			}
			if c := fromV[k]; isFinite(c) {
				t.acc2[k] -= c
			} else {
				t.acc2[k] = t.rowSum(t.c.IntoV(k))
			}
		}
	}
}

// rowSum recomputes a member's accumulated interference exactly: the sum
// of the given Into row over the current members (the diagonal entry is
// stored as zero, so the member itself contributes nothing).
//
//oblint:hotpath
func (t *Tracker) rowSum(row []float64) float64 {
	var sum float64
	for _, j := range t.members {
		sum += row[j]
	}
	return sum
}

// AddMargin returns the margin request i would have if it were added to
// the current set, without mutating the tracker — O(|set|).
//
//oblint:hotpath
func (t *Tracker) AddMargin(i int) float64 {
	if t.pos[i] >= 0 {
		return t.Margin(i)
	}
	var interf1, interf2 float64
	switch t.v {
	case sinr.Directed:
		into := t.c.DirectedInto(i)
		for _, k := range t.members {
			interf1 += into[k]
		}
	case sinr.Bidirectional:
		intoU, intoV := t.c.IntoU(i), t.c.IntoV(i)
		for _, k := range t.members {
			interf1 += intoU[k]
			interf2 += intoV[k]
		}
	}
	return t.margin(i, interf1, interf2)
}

// CanAdd reports whether request i can join the set without violating its
// own SINR constraint or any member's — O(|set|).
//
//oblint:hotpath
func (t *Tracker) CanAdd(i int) bool {
	if t.pos[i] >= 0 {
		return false
	}
	if t.AddMargin(i) < -sinr.Tol {
		return false
	}
	switch t.v {
	case sinr.Directed:
		from := t.c.DirectedFrom(i)
		for _, k := range t.members {
			if t.margin(k, t.acc1[k]+from[k], 0) < -sinr.Tol {
				return false
			}
		}
	case sinr.Bidirectional:
		fromU, fromV := t.c.FromU(i), t.c.FromV(i)
		for _, k := range t.members {
			if t.margin(k, t.acc1[k]+fromU[k], t.acc2[k]+fromV[k]) < -sinr.Tol {
				return false
			}
		}
	}
	return true
}
