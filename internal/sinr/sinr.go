package sinr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/problem"
)

// Variant selects between the two SINR constraint systems of the paper.
type Variant int

const (
	// Directed: each request has a dedicated sender U and receiver V; only
	// the receiver's SINR constraint must hold (Section 1.1).
	Directed Variant = iota + 1
	// Bidirectional: both endpoints must be able to receive, and the
	// interference from another pair at a point w is determined by the
	// closer of that pair's endpoints: min{ℓ(u_j,w), ℓ(v_j,w)}.
	Bidirectional
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case Directed:
		return "directed"
	case Bidirectional:
		return "bidirectional"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Model carries the parameters of the physical model.
type Model struct {
	// Alpha is the path-loss exponent α ≥ 1 (typically 2..5).
	Alpha float64
	// Beta is the gain β > 0: the minimum required SINR.
	Beta float64
	// Noise is the ambient noise ν ≥ 0. The paper's analysis uses ν = 0.
	Noise float64

	// cache is the optional precomputed affectance engine carried for the
	// consumers that resolve one (package affect); the model's own
	// queries never read it. Attach with WithCache.
	cache Cache
}

// Cache is the key under which a model carries a precomputed affectance
// engine (package affect) to the consumers that resolve one. An engine is
// built for one (instance, path-loss exponent, powers) tuple; the gain β
// and the noise ν enter only at query time, so an engine survives
// WithBeta. The model's own interference queries always compute directly:
// they are the oracle every engine is checked against.
type Cache interface {
	// Covers reports whether the engine was built for this instance, this
	// path-loss exponent, and powers bitwise equal to these.
	Covers(in *problem.Instance, alpha float64, powers []float64) bool
}

// SetTracker is the incremental set-feasibility engine the schedulers
// drive: it maintains one simultaneously transmitting set and answers
// membership, margin and admission queries without re-scanning the set
// from scratch. Package affect provides the exact implementations (over
// the dense matrices, and the matrix-free direct engine's); package
// affect/sparse provides a conservative grid-bucketed one whose margins
// are lower bounds on the true margins, so a set it accepts is always
// truly feasible.
//
// Implementations are not safe for concurrent use.
type SetTracker interface {
	// Len returns the current set size.
	Len() int
	// At returns the k-th member in insertion order, without allocating.
	At(k int) int
	// Contains reports whether request i is in the set.
	Contains(i int) bool
	// Members returns the current set in insertion order (a copy).
	Members() []int
	// Reset empties the tracker without dropping its backing storage.
	Reset()
	// Add inserts request i; it panics if i is already a member.
	Add(i int)
	// Remove deletes request i; it panics if i is not a member.
	Remove(i int)
	// Margin returns the (possibly conservative) SINR margin of member i.
	Margin(i int) float64
	// AddMargin returns the margin request i would have if added, without
	// mutating the tracker.
	AddMargin(i int) float64
	// CanAdd reports whether request i can join without violating its own
	// constraint or any member's.
	CanAdd(i int) bool
	// SetFeasible reports whether every member's constraint holds.
	SetFeasible() bool
	// WorstMargin returns the minimum margin over the members and the
	// request attaining it ((+Inf, -1) for an empty set).
	WorstMargin() (float64, int)
}

// TrackerProvider is the hook through which an affectance engine exposes
// its incremental feasibility machinery. Every engine package affect
// resolves implements it — the dense matrices through their row adapter,
// the sparse grid engine, the matrix-free direct engine — and consumers
// take their engine from affect.Resolve rather than probing caches for
// rows.
//
// NewSetTracker returns a fresh empty tracker for the model's gain and
// noise under the given variant, or nil when the engine was not built for
// that variant (or the model's path-loss exponent differs); a
// fault-injecting wrapper may also return nil transiently.
type TrackerProvider interface {
	NewSetTracker(m Model, v Variant) SetTracker
}

// WithCache returns a copy of the model with the affectance engine
// attached for affect.Resolve to find. The model's own queries ignore it,
// and consumers use it only when it Covers their instance and powers, so
// attaching an engine never changes results — it only changes how they
// are computed. Attach nil to detach.
func (m Model) WithCache(c Cache) Model {
	m.cache = c
	return m
}

// CacheFor returns the attached engine if it covers the given instance
// and powers under this model's path-loss exponent, and nil otherwise.
// Covers compares the powers in O(n), so callers ask once per solve, not
// per query.
func (m Model) CacheFor(in *problem.Instance, powers []float64) Cache {
	if m.cache != nil && m.cache.Covers(in, m.Alpha, powers) {
		return m.cache
	}
	return nil
}

// Default returns the model parameters used by the experiments:
// α = 3, β = 1, ν = 0.
func Default() Model { return Model{Alpha: 3, Beta: 1, Noise: 0} }

// Validate reports whether the model parameters are in their legal ranges.
func (m Model) Validate() error {
	if !(m.Alpha >= 1) || math.IsInf(m.Alpha, 0) {
		return fmt.Errorf("sinr: alpha must be ≥ 1, got %g", m.Alpha)
	}
	if !(m.Beta > 0) || math.IsInf(m.Beta, 0) {
		return fmt.Errorf("sinr: beta must be > 0, got %g", m.Beta)
	}
	if m.Noise < 0 || math.IsNaN(m.Noise) {
		return fmt.Errorf("sinr: noise must be ≥ 0, got %g", m.Noise)
	}
	return nil
}

// WithBeta returns a copy of the model with the gain replaced by beta.
func (m Model) WithBeta(beta float64) Model {
	m.Beta = beta
	return m
}

// Loss returns the path loss ℓ = d^α for a distance d. Small integer
// exponents — including the classic free-space α = 2 and the experiments'
// default α = 3 — are expanded into plain multiplications, which are an
// order of magnitude cheaper than math.Pow and agree with it to within a
// few ulps (the feasibility tolerance absorbs the difference; the affect
// oracle cross-check pins this down).
//
//oblint:hotpath
func (m Model) Loss(d float64) float64 {
	switch m.Alpha {
	case 1:
		return d
	case 2:
		return d * d
	case 3:
		return d * d * d
	case 4:
		q := d * d
		return q * q
	}
	if a := m.Alpha; a > 4 && a <= 16 && a == math.Trunc(a) {
		// Exponentiation by squaring for the remaining small integers.
		out, base, k := 1.0, d, int(a)
		for k > 0 {
			if k&1 == 1 {
				out *= base
			}
			base *= base
			k >>= 1
		}
		return out
	}
	//oblint:ignore non-integer alpha fallback; the integer fast paths above cover production models
	return math.Pow(d, m.Alpha)
}

// RequestLoss returns the loss between the endpoints of request i.
func (m Model) RequestLoss(in *problem.Instance, i int) float64 {
	return m.Loss(in.Length(i))
}

// Tol is the relative tolerance used by feasibility comparisons to absorb
// floating-point error: a constraint signal ≥ β·interference is accepted if
// signal ≥ β·interference·(1-Tol). Exported so that the incremental
// feasibility trackers of package affect apply the same acceptance rule.
const Tol = 1e-9

// tol is the package-internal alias kept for the existing comparisons.
const tol = Tol

// MinLossToNode returns min{ℓ(u_j, w), ℓ(v_j, w)}: the loss from the closer
// endpoint of request j to node w (used by the bidirectional constraints).
//
//oblint:hotpath
func (m Model) MinLossToNode(in *problem.Instance, j, w int) float64 {
	r := in.Reqs[j]
	//oblint:ignore direct-oracle fallback; engines devirtualize via geom.DistFunc
	du, dv := in.Space.Dist(r.U, w), in.Space.Dist(r.V, w)
	if dv < du {
		du = dv
	}
	return m.Loss(du)
}

// DirectedInterference returns the interference received at the receiver of
// request i from the senders of the other requests in set, under the given
// powers: Σ_{j∈set, j≠i} p_j / ℓ(u_j, v_i).
func (m Model) DirectedInterference(in *problem.Instance, powers []float64, set []int, i int) float64 {
	vi := in.Reqs[i].V
	var sum float64
	for _, j := range set {
		if j == i {
			continue
		}
		sum += powers[j] / m.Loss(in.Space.Dist(in.Reqs[j].U, vi))
	}
	return sum
}

// BidirectionalInterference returns the interference received at node w from
// the requests in set (excluding request excl, or none if excl < 0):
// Σ_j p_j / min{ℓ(u_j,w), ℓ(v_j,w)}. When w is an endpoint of a request,
// RequestInterferenceU / RequestInterferenceV name it by its request.
func (m Model) BidirectionalInterference(in *problem.Instance, powers []float64, set []int, w, excl int) float64 {
	var sum float64
	for _, j := range set {
		if j == excl {
			continue
		}
		sum += powers[j] / m.MinLossToNode(in, j, w)
	}
	return sum
}

// RequestInterferenceU returns the bidirectional interference received at
// the U endpoint of request i from the requests of set other than i: it
// is BidirectionalInterference at node u_i with excl = i.
func (m Model) RequestInterferenceU(in *problem.Instance, powers []float64, set []int, i int) float64 {
	return m.BidirectionalInterference(in, powers, set, in.Reqs[i].U, i)
}

// RequestInterferenceV is RequestInterferenceU at request i's V endpoint.
func (m Model) RequestInterferenceV(in *problem.Instance, powers []float64, set []int, i int) float64 {
	return m.BidirectionalInterference(in, powers, set, in.Reqs[i].V, i)
}

// DirectedMargin returns signal - β·(interference + noise) for request i
// within set, normalized by the signal strength. A non-negative margin (up
// to tolerance) means the constraint holds. Margins are useful for
// diagnosing near-violations and for greedy thinning.
func (m Model) DirectedMargin(in *problem.Instance, powers []float64, set []int, i int) float64 {
	signal := powers[i] / m.RequestLoss(in, i)
	return m.SignalMargin(Directed, signal, m.DirectedInterference(in, powers, set, i), 0)
}

// BidirectionalMargin returns the worse of the two endpoint margins of
// request i within set, normalized by the signal strength.
func (m Model) BidirectionalMargin(in *problem.Instance, powers []float64, set []int, i int) float64 {
	signal := powers[i] / m.RequestLoss(in, i)
	return m.SignalMargin(Bidirectional, signal,
		m.RequestInterferenceU(in, powers, set, i), m.RequestInterferenceV(in, powers, set, i))
}

// SignalMargin is the margin formula of DirectedMargin and
// BidirectionalMargin, for a request whose own signal p_i/ℓ_i is signal:
// (signal − β·(interf1 + ν)) / signal at its receiver (directed; interf2
// is ignored), or the worse of that and the same at interf2 for its U and
// V endpoints (bidirectional). Consumers that sum a request's
// interference through an engine (affect.Engine.InterferenceBound) turn
// the sums into margins here, so their margins are the model's.
func (m Model) SignalMargin(v Variant, signal, interf1, interf2 float64) float64 {
	if signal == 0 {
		return math.Inf(-1)
	}
	if v == Directed {
		return (signal - m.Beta*(interf1+m.Noise)) / signal
	}
	worst := math.Inf(1)
	for _, interf := range [2]float64{interf1, interf2} {
		if mg := (signal - m.Beta*(interf+m.Noise)) / signal; mg < worst {
			worst = mg
		}
	}
	return worst
}

// Margin dispatches to DirectedMargin or BidirectionalMargin.
func (m Model) Margin(in *problem.Instance, v Variant, powers []float64, set []int, i int) float64 {
	switch v {
	case Directed:
		return m.DirectedMargin(in, powers, set, i)
	case Bidirectional:
		return m.BidirectionalMargin(in, powers, set, i)
	default:
		panic(fmt.Sprintf("sinr: unknown variant %d", int(v)))
	}
}

// RequestFeasible reports whether the SINR constraint of request i holds
// when all requests of set transmit simultaneously with the given powers.
func (m Model) RequestFeasible(in *problem.Instance, v Variant, powers []float64, set []int, i int) bool {
	return m.Margin(in, v, powers, set, i) >= -tol
}

// SetFeasible reports whether all requests in set can transmit
// simultaneously with the given powers.
func (m Model) SetFeasible(in *problem.Instance, v Variant, powers []float64, set []int) bool {
	for _, i := range set {
		if !m.RequestFeasible(in, v, powers, set, i) {
			return false
		}
	}
	return true
}

// ViolationError describes the first violated SINR constraint of a schedule.
type ViolationError struct {
	Variant Variant
	Request int
	Color   int
	Margin  float64
}

// Error formats the violation.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("sinr: %s SINR constraint violated for request %d in color %d (margin %.3g)",
		e.Variant, e.Request, e.Color, e.Margin)
}

// CheckSchedule validates a complete schedule: every request must be
// colored, powers must be positive, and every color class must be feasible.
// It returns nil if the schedule is valid and a *ViolationError for the
// first violated SINR constraint.
func (m Model) CheckSchedule(in *problem.Instance, v Variant, s *problem.Schedule) error {
	if len(s.Colors) != in.N() || len(s.Powers) != in.N() {
		return fmt.Errorf("sinr: schedule size mismatch: %d colors, %d powers, %d requests",
			len(s.Colors), len(s.Powers), in.N())
	}
	for i, c := range s.Colors {
		if c < 0 {
			return fmt.Errorf("sinr: request %d unassigned", i)
		}
		if !(s.Powers[i] > 0) {
			return fmt.Errorf("sinr: request %d has non-positive power %g", i, s.Powers[i])
		}
	}
	for c, class := range s.Classes() {
		if len(class) == 0 {
			return fmt.Errorf("sinr: empty color class %d", c)
		}
		for _, i := range class {
			if mg := m.Margin(in, v, s.Powers, class, i); mg < -tol {
				return &ViolationError{Variant: v, Request: i, Color: c, Margin: mg}
			}
		}
	}
	return nil
}

// ErrEmptySet is returned by helpers that require a non-empty request set.
var ErrEmptySet = errors.New("sinr: empty request set")

// WorstMargin returns the minimum margin over the set and the request index
// attaining it.
func (m Model) WorstMargin(in *problem.Instance, v Variant, powers []float64, set []int) (float64, int, error) {
	if len(set) == 0 {
		return 0, -1, ErrEmptySet
	}
	worst := math.Inf(1)
	arg := set[0]
	for _, i := range set {
		if mg := m.Margin(in, v, powers, set, i); mg < worst {
			worst = mg
			arg = i
		}
	}
	return worst, arg, nil
}
