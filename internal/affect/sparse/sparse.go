package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/affect"
	"repro/internal/par"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// DefaultEpsilon is the default per-entry far-field overestimate budget.
// At the experiments' α=3 in two dimensions it yields a near radius of
// 3 cell rings — exact entries for everything within three cells, cell-
// granular upper bounds beyond.
const DefaultEpsilon = 8.0

// AutoThreshold is the instance size above which the auto affectance mode
// switches from the dense engine to the sparse one: below it the dense
// matrices fit comfortably (≤ ~½ GB) and stay bitwise-exact; above it
// their O(n²) memory takes over the solve cost.
const AutoThreshold = 4096

// cellOccupancy is the target number of endpoint sites per grid cell. It
// trades cell count against per-cell list length.
const cellOccupancy = 2.0

// Options configure the sparse engine.
type Options struct {
	// Epsilon is the error budget of the far-field truncation: every
	// far-pair entry overestimates the true affectance by at most a
	// factor 1+ε (the near radius is derived from it, see rings). Larger
	// ε means fewer exact entries — less memory and faster probes, but
	// looser margins and so potentially more colors. It never costs
	// correctness: the bound direction makes every set it admits feasible.
	// It must be positive: ε = 0 would keep every pair exact, which is the
	// dense engine (affect.New), so the solvers' engine selection resolves
	// a zero budget to that engine instead.
	Epsilon float64
}

// rings converts the error budget into the near radius in cells: far
// pairs are at Chebyshev cell distance > r, where their box distance is
// ≥ r·h while their true distance is at most box + 2h√dim, so the
// affectance overestimate factor is ≤ (1 + 2√dim/r)^α ≤ 1+ε. A vanishing
// budget saturates to "everything is near" (the neighbor enumeration is
// clamped to the occupied grid, so a huge radius stays finite work).
func rings(eps, alpha float64, dim int) int32 {
	f := math.Pow(1+eps, 1/alpha) - 1
	if f <= 0 {
		return math.MaxInt32
	}
	r := math.Ceil(2 * math.Sqrt(float64(dim)) / f)
	if r < 1 {
		return 1
	}
	if r >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(r)
}

// Engine is the grid-bucketed affectance engine for one (instance, model,
// variant, powers) tuple: exact CSR entries for near pairs, cell-granular
// conservative upper bounds for everything else. It is an affect.Engine
// that materializes no matrix rows; schedulers reach it through
// affect.Resolve and drive its trackers and bounds.
//
// Like the dense cache it is immutable after construction and safe for
// concurrent readers; the trackers it hands out are not.
type Engine struct {
	in     *problem.Instance
	v      sinr.Variant
	alpha  float64
	n      int
	eps    float64
	r      int32
	powers []float64

	signals []float64
	loss    sinr.Model // alpha-only model for loss evaluations

	g            *grid
	cellU, cellV []int32 // cell id of each request's U / V endpoint

	// Near-pair CSR. Row i lists the near partners of request i in
	// ascending order; a1[e] (and a2[e] for the bidirectional variant) is
	// the exact affectance adj[e] adds at i's constraint node(s), bitwise
	// equal to the dense matrix entry. mirror[e] locates the reverse
	// entry (i in adj[e]'s row), so "what does j inflict" is one indexed
	// load away from "what does j receive".
	start  []int32
	adj    []int32
	a1, a2 []float64
	mirror []int32
}

var _ affect.Engine = (*Engine)(nil)

// ErrUnsupportedMetric is returned when the sparse engine is requested
// over a metric that carries no grid coordinates. The solver layer
// returns it verbatim wherever it pre-validates a forced sparse mode, so
// the message cannot drift between solvers.
var ErrUnsupportedMetric = errors.New("sparse: metric space carries no grid coordinates (need Euclidean dim ≤ 3 or a line)")

// New builds the sparse engine. Epsilon must be positive and the
// instance metric must be Supported.
func New(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64, o Options) (*Engine, error) {
	if !(o.Epsilon > 0) {
		return nil, fmt.Errorf("sparse: epsilon must be > 0, got %g", o.Epsilon)
	}
	if v != sinr.Directed && v != sinr.Bidirectional {
		return nil, fmt.Errorf("sparse: unknown variant %d", int(v))
	}
	n := in.N()
	if len(powers) != n {
		return nil, fmt.Errorf("sparse: %d powers for %d requests", len(powers), n)
	}
	fn, dim, ok := points(in.Space)
	if !ok {
		return nil, ErrUnsupportedMetric
	}
	e := &Engine{
		in:     in,
		v:      v,
		alpha:  m.Alpha,
		n:      n,
		eps:    o.Epsilon,
		r:      rings(o.Epsilon, m.Alpha, dim),
		powers: append([]float64(nil), powers...),
		loss:   sinr.Model{Alpha: m.Alpha, Beta: 1},
	}

	e.signals = make([]float64, n)
	for i := 0; i < n; i++ {
		e.signals[i] = powers[i] / m.RequestLoss(in, i)
	}

	// Bucket the endpoints and index each cell's requests.
	nodes := make([]int, 0, 2*n)
	for _, r := range in.Reqs {
		nodes = append(nodes, r.U, r.V)
	}
	nodeCell := make([]int32, in.Space.N())
	for i := range nodeCell {
		nodeCell[i] = -1
	}
	e.g = newGrid(fn, dim, nodes, cellOccupancy, nodeCell)
	e.cellU = make([]int32, n)
	e.cellV = make([]int32, n)
	for i, r := range in.Reqs {
		cu, cv := nodeCell[r.U], nodeCell[r.V]
		e.cellU[i], e.cellV[i] = cu, cv
		e.g.reqs[cu] = append(e.g.reqs[cu], int32(i))
		if cv != cu {
			e.g.reqs[cv] = append(e.g.reqs[cv], int32(i))
		}
	}

	// Near adjacency: request j is near i iff some endpoint cell of j is
	// within r Chebyshev cells of some endpoint cell of i — a symmetric
	// relation, discovered by scanning the neighbor cells of i's own
	// cells. Worker-local stamps dedupe requests seen through several
	// cells.
	lists := make([][]int32, n)
	par.Chunks(n, func(lo, hi int) {
		stamp := make([]int32, n)
		for i := lo; i < hi; i++ {
			mark := int32(i) + 1
			var out []int32
			visit := func(id int32) {
				for _, j := range e.g.reqs[id] {
					if int(j) != i && stamp[j] != mark {
						stamp[j] = mark
						out = append(out, j)
					}
				}
			}
			e.g.neighborCells(e.cellU[i], e.r, visit)
			if e.cellV[i] != e.cellU[i] {
				e.g.neighborCells(e.cellV[i], e.r, visit)
			}
			slices.Sort(out)
			lists[i] = out
		}
	})

	var total int64
	e.start = make([]int32, n+1)
	for i, l := range lists {
		total += int64(len(l))
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("sparse: near structure overflows (%d entries at ε=%g); raise epsilon or use the dense engine", total, o.Epsilon)
		}
		e.start[i+1] = e.start[i] + int32(len(l))
	}
	e.adj = make([]int32, total)
	e.a1 = make([]float64, total)
	if v == sinr.Bidirectional {
		e.a2 = make([]float64, total)
	}
	e.mirror = make([]int32, total)

	// Exact near entries, with the same formulas as the dense fill so the
	// two agree bitwise on every stored pair.
	par.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := e.start[i]
			copy(e.adj[base:e.start[i+1]], lists[i])
			switch v {
			case sinr.Directed:
				vi := in.Reqs[i].V
				for k, j := range lists[i] {
					e.a1[base+int32(k)] = powers[j] / m.Loss(in.Space.Dist(in.Reqs[j].U, vi))
				}
			case sinr.Bidirectional:
				for k, j := range lists[i] {
					e.a1[base+int32(k)] = powers[j] / m.MinLossToNode(in, int(j), in.Reqs[i].U)
					e.a2[base+int32(k)] = powers[j] / m.MinLossToNode(in, int(j), in.Reqs[i].V)
				}
			}
		}
	})
	par.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ee := e.start[i]; ee < e.start[i+1]; ee++ {
				j := e.adj[ee]
				rev := e.findEntry(int(j), i)
				if rev < 0 {
					panic(fmt.Sprintf("sparse: asymmetric near pair (%d,%d)", i, j))
				}
				e.mirror[ee] = rev
			}
		}
	})
	return e, nil
}

// findEntry returns the CSR index of partner j in row i, or -1.
func (e *Engine) findEntry(i, j int) int32 {
	lo, hi := e.start[i], e.start[i+1]
	row := e.adj[lo:hi]
	k, ok := sort.Find(len(row), func(k int) int { return j - int(row[k]) })
	if !ok {
		return -1
	}
	return lo + int32(k)
}

// --- geometry-backed bounds ---

// invBox returns 1/ℓ(boxdist) for two cells beyond each other's adjacent
// ring — the per-cell affectance kernel of the far field.
func (e *Engine) invBox(c, tgt int32) float64 {
	return 1 / e.loss.Loss(e.g.boxDist(c, tgt))
}

// farBound returns the conservative upper bound on the affectance request
// j adds at any node of cell tgt, at cell granularity: the worse of j's
// endpoint-cell kernels (the bidirectional min-loss is attained at one of
// the endpoints, and each kernel dominates its endpoint's exact term, so
// the max dominates the pair while staying within the 1+ε budget). It
// must only be used for far pairs (every endpoint cell of j beyond the
// near radius of tgt), where the box distances are strictly positive.
func (e *Engine) farBound(j int, tgt int32) float64 {
	b := e.invBox(e.cellU[j], tgt)
	if e.v == sinr.Bidirectional {
		if cv := e.cellV[j]; cv != e.cellU[j] {
			if b2 := e.invBox(cv, tgt); b2 > b {
				b = b2
			}
		}
	}
	return e.powers[j] * b
}

// PairBound returns a conservative upper bound on the affectance request
// j adds at request i's constraint node(s): exact (bitwise equal to the
// dense entry) for near pairs, the cell-granular far bound otherwise. For
// the directed variant only the first value is meaningful.
func (e *Engine) PairBound(i, j int) (b1, b2 float64) {
	if ee := e.findEntry(i, j); ee >= 0 {
		b1 = e.a1[ee]
		if e.a2 != nil {
			b2 = e.a2[ee]
		}
		return b1, b2
	}
	if e.v == sinr.Directed {
		return e.farBound(j, e.cellV[i]), 0
	}
	return e.farBound(j, e.cellU[i]), e.farBound(j, e.cellV[i])
}

// InterferenceBound returns a conservative upper bound on the total
// interference the requests of set (excluding i itself) add at request
// i's constraint node(s): U and V endpoints for the bidirectional
// variant, the receiver (first value) for the directed one. The LP-repair
// budget checks run on it at scale — O(|set|·log k) instead of walking a
// dense row.
func (e *Engine) InterferenceBound(set []int, i int) (u, v float64) {
	for _, j := range set {
		if j == i {
			continue
		}
		b1, b2 := e.PairBound(i, j)
		u += b1
		v += b2
	}
	return u, v
}

// Near returns the number of stored near entries of request i (testing
// and diagnostics).
func (e *Engine) Near(i int) int { return int(e.start[i+1] - e.start[i]) }

// Entries returns the total number of stored exact entries.
func (e *Engine) Entries() int { return len(e.adj) }

// Epsilon returns the engine's error budget.
func (e *Engine) Epsilon() float64 { return e.eps }

// Cells returns the number of occupied grid cells.
func (e *Engine) Cells() int { return len(e.g.coords) }

// Bytes returns the approximate resident payload of the engine in
// bytes: the near-pair CSR, the per-request vectors and the grid
// buckets. Map bucket overhead of the cell index is not counted, so
// the figure is a floor — good for the memory gauges and the sparse
// vs dense comparison, not an allocator-exact accounting.
func (e *Engine) Bytes() int64 {
	b := 8 * int64(len(e.powers)+len(e.signals)+len(e.a1)+len(e.a2))
	b += 4 * int64(len(e.cellU)+len(e.cellV)+len(e.start)+len(e.adj)+len(e.mirror))
	b += int64(len(e.g.coords)) * int64(3*4) // cellCoord payload
	for _, rs := range e.g.reqs {
		b += 4 * int64(len(rs))
	}
	return b
}

// N returns the number of requests the engine was built for.
func (e *Engine) N() int { return e.n }

// Variant returns the SINR variant the engine was built for.
func (e *Engine) Variant() sinr.Variant { return e.v }

// Covers reports whether the engine answers queries for this instance,
// path-loss exponent and powers, with the dense and the direct engine's
// rule: the same instance, the same exponent and powers bitwise equal to
// the build's. The comparison is O(n); affect.Resolve makes it once per
// consumer call.
func (e *Engine) Covers(in *problem.Instance, alpha float64, powers []float64) bool {
	if in != e.in || alpha != e.alpha || len(powers) != e.n {
		return false
	}
	for i, p := range powers {
		if p != e.powers[i] {
			return false
		}
	}
	return true
}

// Signals returns the per-request signal strengths p_i/ℓ_i.
func (e *Engine) Signals() []float64 { return e.signals }
