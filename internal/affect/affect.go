package affect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// Cache is the precomputed affectance engine: for one (instance, model,
// variant, powers) tuple it stores the full n×n affectance matrices as flat
// row-major []float64, plus the per-request signal vector. Attached to a
// Model (sinr.Model.WithCache), it reaches consumers through Resolve, which
// serves it through the Rows adapter.
//
// For the directed variant one matrix is stored (interference at each
// request's receiver); for the bidirectional variant two (interference at
// each request's U and V endpoint). Each matrix is also stored transposed,
// so both access patterns of the algorithms — "what does request i receive"
// (Into rows) and "what does request j inflict" (From rows) — stream
// through contiguous memory.
//
// Diagonal entries are stored as zero: a request never interferes with
// itself, and the query loops skip j == i explicitly, mirroring the direct
// computation.
//
// The powers slice is snapshotted at build time, and Covers accepts any
// slice with bitwise-equal contents. A Cache is safe for concurrent
// readers; the trackers built over it are not.
type Cache struct {
	build
	v sinr.Variant
	n int

	signals []float64

	// directed matrices (nil for the bidirectional variant)
	dInto, dFrom []float64
	// bidirectional matrices (nil for the directed variant)
	uInto, vInto, uFrom, vFrom []float64

	// The transposed From views are materialized lazily on first use: the
	// trackers need them, but the Into-only consumers (LP assembly, the
	// LP budget and repair passes, distributed's success check) stream
	// Into rows alone, and for those a cache at half the memory suffices.
	// Each transpose is built exactly once, behind a sync.Once, so
	// concurrent readers race neither on the build nor on the slice
	// assignment.
	dFromOnce, uFromOnce, vFromOnce sync.Once

	// bytes tracks the float64 payload held by the cache. Atomic because
	// the lazy From transposes grow it concurrently with Bytes readers.
	bytes atomic.Int64
}

var _ sinr.Cache = (*Cache)(nil)

// build is the (instance, path-loss exponent, powers) tuple an engine was
// built for; its Covers is the coverage rule of the dense and the direct
// engine.
type build struct {
	in     *problem.Instance
	alpha  float64
	powers []float64 // snapshot of the build powers
}

// Covers reports whether the engine answers queries for this instance,
// path-loss exponent and powers: the same instance, the same exponent and
// powers bitwise equal to the build's. The comparison is O(n); Resolve
// makes it once per consumer call, off the hot path.
func (b *build) Covers(in *problem.Instance, alpha float64, powers []float64) bool {
	if in != b.in || alpha != b.alpha || len(powers) != len(b.powers) {
		return false
	}
	for i, p := range powers {
		if p != b.powers[i] {
			return false
		}
	}
	return true
}

// New builds the affectance cache for the given model, variant, instance
// and powers. The matrices are filled row by row on par.ForEach. It
// panics if len(powers) != in.N() — every call site derives the powers
// from the instance, so a mismatch is a programming error.
func New(m sinr.Model, v sinr.Variant, in *problem.Instance, powers []float64) *Cache {
	n := in.N()
	if len(powers) != n {
		panic(fmt.Sprintf("affect: %d powers for %d requests", len(powers), n))
	}
	c := &Cache{
		build: build{in: in, alpha: m.Alpha, powers: append([]float64(nil), powers...)},
		v:     v,
		n:     n,
	}
	c.signals = make([]float64, n)
	for i := 0; i < n; i++ {
		c.signals[i] = powers[i] / m.RequestLoss(in, i)
	}
	switch v {
	case sinr.Directed:
		c.dInto = make([]float64, n*n)
	case sinr.Bidirectional:
		c.uInto = make([]float64, n*n)
		c.vInto = make([]float64, n*n)
	default:
		panic(fmt.Sprintf("affect: unknown variant %d", int(v)))
	}

	// Fill the Into matrices row by row: row i holds the interference every
	// other request adds at request i's constraint node(s). The entries are
	// computed with the exact formulas of the sinr package, so the engine
	// and the model agree bitwise.
	par.ForEach(n, func(i int) {
		base := i * n
		switch v {
		case sinr.Directed:
			vi := in.Reqs[i].V
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				c.dInto[base+j] = powers[j] / m.Loss(in.Space.Dist(in.Reqs[j].U, vi))
			}
		case sinr.Bidirectional:
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				c.uInto[base+j] = powers[j] / m.MinLossToNode(in, j, in.Reqs[i].U)
				c.vInto[base+j] = powers[j] / m.MinLossToNode(in, j, in.Reqs[i].V)
			}
		}
	})

	// The transposed From matrices are NOT built here: they materialize
	// lazily on first access (see DirectedFrom/FromU/FromV), so a solve
	// that never walks them — every pure Into consumer — pays half the
	// dense memory.
	c.bytes.Store(8 * int64(len(c.powers)+len(c.signals)+
		len(c.dInto)+len(c.uInto)+len(c.vInto)))
	return c
}

// transpose returns the transpose of an n×n row-major matrix, filled in
// parallel by destination row.
func transpose(a []float64, n int) []float64 {
	t := make([]float64, n*n)
	par.ForEach(n, func(j int) {
		base := j * n
		for i := 0; i < n; i++ {
			t[base+i] = a[i*n+j]
		}
	})
	return t
}

// N returns the number of requests the cache was built for.
func (c *Cache) N() int { return c.n }

// Variant returns the SINR variant the cache was built for: its matrices
// serve that variant only.
func (c *Cache) Variant() sinr.Variant { return c.v }

func (c *Cache) row(a []float64, i int) []float64 {
	if a == nil {
		return nil
	}
	return a[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// DirectedInto returns row i of the directed affectance matrix (nil for a
// bidirectional cache): entry j is p_j/ℓ(u_j, v_i), the interference
// request j's sender adds at request i's receiver.
func (c *Cache) DirectedInto(i int) []float64 { return c.row(c.dInto, i) }

// DirectedFrom returns row j of the transposed directed matrix,
// materializing the transpose on first use.
func (c *Cache) DirectedFrom(j int) []float64 {
	if c.dInto == nil {
		return nil
	}
	c.dFromOnce.Do(func() {
		c.dFrom = transpose(c.dInto, c.n)
		c.bytes.Add(8 * int64(len(c.dFrom)))
	})
	return c.row(c.dFrom, j)
}

// IntoU returns row i of the bidirectional affectance matrix at endpoint U
// (nil for a directed cache): entry j is p_j/min{ℓ(u_j,u_i), ℓ(v_j,u_i)}.
func (c *Cache) IntoU(i int) []float64 { return c.row(c.uInto, i) }

// IntoV returns row i of the bidirectional affectance matrix at endpoint V.
func (c *Cache) IntoV(i int) []float64 { return c.row(c.vInto, i) }

// FromU returns row j of the transposed endpoint-U matrix, materializing
// the transpose on first use.
func (c *Cache) FromU(j int) []float64 {
	if c.uInto == nil {
		return nil
	}
	c.uFromOnce.Do(func() {
		c.uFrom = transpose(c.uInto, c.n)
		c.bytes.Add(8 * int64(len(c.uFrom)))
	})
	return c.row(c.uFrom, j)
}

// FromV returns row j of the transposed endpoint-V matrix, materializing
// the transpose on first use.
func (c *Cache) FromV(j int) []float64 {
	if c.vInto == nil {
		return nil
	}
	c.vFromOnce.Do(func() {
		c.vFrom = transpose(c.vInto, c.n)
		c.bytes.Add(8 * int64(len(c.vFrom)))
	})
	return c.row(c.vFrom, j)
}

// Bytes returns the float64 payload currently held by the cache, in
// bytes. It grows when a lazy From transpose materializes, so it
// reports what the cache holds now, not its eventual worst case.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Signals returns the per-request signal strengths p_i/ℓ_i.
func (c *Cache) Signals() []float64 { return c.signals }
