package affect

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// Direct is the matrix-free affectance engine: it keeps only the
// per-request signal vector and computes each affectance on demand with
// the formulas New fills its matrices with, so every value is bitwise the
// dense entry, at O(n) memory and no build cost. Resolve falls back to it
// when the model carries no engine for the variant, and the solvers run
// on it under the root package's AffectDirect mode.
//
// Like the other engines it is immutable after construction and safe for
// concurrent readers; the trackers it hands out are not.
type Direct struct {
	build

	v       sinr.Variant
	loss    sinr.Model // path-loss exponent only; gain and noise enter per tracker
	dist    func(a, b int) float64
	signals []float64
}

var _ Engine = (*Direct)(nil)

// NewDirect builds the direct engine for the model's path-loss exponent,
// the variant, the instance and the powers (snapshotted). It panics on an
// unknown variant or if len(powers) != in.N(), like New.
func NewDirect(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) *Direct {
	n := in.N()
	if len(powers) != n {
		panic(fmt.Sprintf("affect: %d powers for %d requests", len(powers), n))
	}
	if v != sinr.Directed && v != sinr.Bidirectional {
		panic(fmt.Sprintf("affect: unknown variant %d", int(v)))
	}
	d := &Direct{
		build:   build{in: in, alpha: m.Alpha, powers: append([]float64(nil), powers...)},
		v:       v,
		loss:    sinr.Model{Alpha: m.Alpha},
		dist:    geom.DistFunc(in.Space),
		signals: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		d.signals[i] = powers[i] / m.RequestLoss(in, i)
	}
	return d
}

// affectance returns the interference request j adds at request i's
// constraint node(s), with New's fill formulas.
//
//oblint:hotpath
func (d *Direct) affectance(i, j int) (b1, b2 float64) {
	rj, ri := d.in.Reqs[j], d.in.Reqs[i]
	p := d.powers[j]
	if d.v == sinr.Directed {
		return p / d.loss.Loss(d.dist(rj.U, ri.V)), 0
	}
	return p / d.minLoss(rj, ri.U), p / d.minLoss(rj, ri.V)
}

// minLoss is sinr.Model.MinLossToNode over the devirtualized distance.
//
//oblint:hotpath
func (d *Direct) minLoss(r problem.Request, w int) float64 {
	du, dv := d.dist(r.U, w), d.dist(r.V, w)
	if dv < du {
		du = dv
	}
	return d.loss.Loss(du)
}

// Variant returns the SINR variant the engine serves.
func (d *Direct) Variant() sinr.Variant { return d.v }

// PairBound returns the exact affectance request j adds at request i's
// constraint node(s), bitwise the dense matrix entry (zero on the
// diagonal).
func (d *Direct) PairBound(i, j int) (b1, b2 float64) {
	if i == j {
		return 0, 0
	}
	return d.affectance(i, j)
}

// InterferenceBound returns the exact interference the requests of set
// other than i add at request i's constraint node(s), summed in set
// order — bitwise the dense row sum.
func (d *Direct) InterferenceBound(set []int, i int) (b1, b2 float64) {
	for _, j := range set {
		if j != i {
			c1, c2 := d.affectance(i, j)
			b1 += c1
			b2 += c2
		}
	}
	return b1, b2
}

// Signals returns the per-request signal strengths p_i/ℓ_i.
func (d *Direct) Signals() []float64 { return d.signals }

// NewSetTracker implements sinr.TrackerProvider: a fresh exact tracker
// that computes its pairs directly, or nil when v or the model's
// path-loss exponent is not the engine's.
func (d *Direct) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	if v != d.v || m.Alpha != d.alpha {
		return nil
	}
	return &directTracker{exactSet: newExactSet(m, v, d.signals), d: d, memo: -1}
}

// directTracker is the exact tracker of the Direct engine: the same
// accumulators as Tracker, with each pair computed where Tracker reads a
// row entry, in the same order — so its margins are bitwise Tracker's.
type directTracker struct {
	exactSet
	d *Direct

	// The contributions of the last CanAdd that ran to completion, so the
	// Add that admits the candidate next reuses them instead of computing
	// every pair twice: memo is the candidate (-1 when none), memoOwn1/2
	// its incoming interference and memoOut1/2[p] what it adds at
	// members[p]. Every mutation clears memo.
	memo               int
	memoOwn1, memoOwn2 float64
	memoOut1, memoOut2 []float64
}

// incoming sums what the members other than i add at request i's
// constraint node(s), in member order.
//
//oblint:hotpath
func (t *directTracker) incoming(i int) (b1, b2 float64) {
	for _, k := range t.members {
		if k != i {
			c1, c2 := t.d.affectance(i, k)
			b1 += c1
			b2 += c2
		}
	}
	return b1, b2
}

// Reset empties the tracker without dropping its backing arrays.
func (t *directTracker) Reset() {
	t.exactSet.Reset()
	t.memo = -1
}

// AddMargin returns the margin request i would have if it were added to
// the current set, without mutating the tracker — O(|set|).
//
//oblint:hotpath
func (t *directTracker) AddMargin(i int) float64 {
	if t.pos[i] >= 0 {
		return t.Margin(i)
	}
	b1, b2 := t.incoming(i)
	return t.margin(i, b1, b2)
}

// CanAdd reports whether request i can join the set without violating its
// own SINR constraint or any member's — O(|set|). A full pass memoizes
// the computed contributions for the Add that follows.
//
//oblint:hotpath
func (t *directTracker) CanAdd(i int) bool {
	if t.pos[i] >= 0 {
		return false
	}
	t.memo = -1
	own1, own2 := t.incoming(i)
	if t.margin(i, own1, own2) < -sinr.Tol {
		return false
	}
	n := len(t.members)
	if cap(t.memoOut1) < n {
		t.memoOut1 = make([]float64, n, 2*n)
		t.memoOut2 = make([]float64, n, 2*n)
	}
	t.memoOut1, t.memoOut2 = t.memoOut1[:n], t.memoOut2[:n]
	out1, out2 := t.memoOut1, t.memoOut2
	for p, k := range t.members {
		c1, c2 := t.d.affectance(k, i)
		if t.margin(k, t.acc1[k]+c1, t.acc2[k]+c2) < -sinr.Tol {
			return false
		}
		out1[p], out2[p] = c1, c2
	}
	t.memo, t.memoOwn1, t.memoOwn2 = i, own1, own2
	return true
}

// Add inserts request i, updating every member's accumulators with i's
// contribution and computing i's own accumulated interference — O(|set|)
// pair evaluations, none when a full CanAdd(i) just computed them. It
// panics if i is already a member.
//
//oblint:hotpath
func (t *directTracker) Add(i int) {
	if t.pos[i] >= 0 {
		panic(fmt.Sprintf("affect: Add(%d): already a member", i))
	}
	if t.memo == i {
		for p, k := range t.members {
			t.acc1[k] += t.memoOut1[p]
			t.acc2[k] += t.memoOut2[p]
		}
		t.insert(i, t.memoOwn1, t.memoOwn2)
		t.memo = -1
		return
	}
	var own1, own2 float64
	for _, k := range t.members {
		c1, c2 := t.d.affectance(k, i)
		t.acc1[k] += c1
		t.acc2[k] += c2
		o1, o2 := t.d.affectance(i, k)
		own1 += o1
		own2 += o2
	}
	t.insert(i, own1, own2)
	t.memo = -1
}

// Remove deletes request i, subtracting its contribution from every
// remaining member's accumulators — O(|set|); a non-finite contribution
// (a zero-distance pair) is not subtracted but recomputed over the
// members, as Tracker does. It panics if i is not a member.
//
//oblint:hotpath
func (t *directTracker) Remove(i int) {
	t.unlink(i)
	t.memo = -1
	for _, k := range t.members {
		c1, c2 := t.d.affectance(k, i)
		if isFinite(c1) {
			t.acc1[k] -= c1
		} else {
			t.acc1[k], _ = t.incoming(k)
		}
		if isFinite(c2) {
			t.acc2[k] -= c2
		} else {
			_, t.acc2[k] = t.incoming(k)
		}
	}
}
