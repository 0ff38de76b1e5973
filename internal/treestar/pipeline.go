package treestar

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/pprof"

	"repro/internal/affect"
	"repro/internal/coloring"
	"repro/internal/geom"
	"repro/internal/hst"
	"repro/internal/nodeloss"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// CacheBuilder constructs the affectance engine stage 5 thins over. The
// pipeline re-invokes it for every restricted instance it extracts a color
// class from, so the caller decides dense vs sparse per sub-instance (auto
// mode shrinks back to dense once the remaining set is small). The
// returned cache must cover (in, powers) under m's path-loss exponent for
// the bidirectional variant.
type CacheBuilder func(m sinr.Model, in *problem.Instance, powers []float64) (sinr.Cache, error)

// stage runs f as one pipeline stage under a span "pipeline/<name>"
// from the context's collector and a pprof label stage=<name>, so the
// span histograms and CPU profile samples attribute cost to the same
// stage names. With no collector in the context the span is inert and
// only the label remains — profiles stay attributable in unobserved
// runs (oblsched -cpuprofile without -metrics).
func stage(ctx context.Context, name string, f func() error) error {
	_, sp := obs.Start(ctx, "pipeline/"+name)
	defer sp.End()
	var err error
	pprof.Do(ctx, pprof.Labels("stage", name), func(context.Context) { err = f() })
	return err
}

// Run executes the Theorem 2 pipeline on the instance and returns one color
// class of request indices that is feasible in the original metric under
// the square root power assignment with gain m.Beta (bidirectional SINR
// constraints), together with per-stage diagnostics.
func (p Pipeline) Run(m sinr.Model, in *problem.Instance, rng *rand.Rand) ([]int, *PipelineStats, error) {
	return p.runCtx(context.Background(), m, in, rng, &arena{})
}

// arena bundles the buffers one class extraction needs and the next one
// can reuse: the node-loss split's scratch (stage 1), the selection
// marker arrays (stage 3), the thinning score buffers (stage 5), and the
// all-nodes identity list of stage 2. ColoringWithStats allocates one
// arena and threads it through every restricted instance, so the
// per-class setup cost stops scaling with the number of colors. An arena
// must not be shared by concurrent runs.
type arena struct {
	nl       nodeloss.Scratch
	tree     treeScratch
	thin     coloring.ThinScratch
	allNodes []int
	loss     map[int]float64
}

// runCtx is Run under a context. The context's obs collector (if any)
// receives one span per stage — "pipeline/stage1" through
// "pipeline/stage5" — and one "pipeline/hst-build" span per sampled
// tree; each stage also runs under a stage=<name> pprof label. The two
// long stages poll the context: stage 3 once per recursion level and
// stage 5 once per thinning round, so cancellation does not wait for a
// whole class extraction.
func (p Pipeline) runCtx(ctx context.Context, m sinr.Model, in *problem.Instance, rng *rand.Rand, ar *arena) ([]int, *PipelineStats, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if rng == nil {
		return nil, nil, errors.New("treestar: nil rng")
	}
	stats := &PipelineStats{}

	// Stage 1 (Section 3.2): split the pairs into the node-loss problem.
	var (
		nl      *nodeloss.Instance
		mapping *nodeloss.PairMapping
	)
	if err := stage(ctx, "stage1", func() error {
		var err error
		nl, mapping, err = nodeloss.FromPairsScratch(m, in, &ar.nl)
		return err
	}); err != nil {
		return nil, nil, err
	}
	stats.ActiveNodes = nl.N()
	if in.N() == 1 {
		stats.PairsKept, stats.FinalPairs = 1, 1
		return []int{0}, stats, nil
	}
	betaNode := nodeloss.PairGainToNodeGain(m.Beta)

	// Stage 2 (Lemma 6 / Proposition 7): sample r = ⌈log₂ n⌉ + 2 tree
	// embeddings of the active nodes and keep the tree whose core, at
	// the ensemble's default stretch bound, covers the most of them.
	var (
		ensemble *hst.Ensemble
		bestTree int
		core     []int
	)
	if err := stage(ctx, "stage2", func() error {
		// NewSubOwned: nl.Nodes lives in the arena's node-loss scratch,
		// which is stable until the next class's stage 1 — after this
		// class's ensemble is dead.
		sub, err := geom.NewSubOwned(in.Space, nl.Nodes)
		if err != nil {
			return err
		}
		r := int(math.Ceil(math.Log2(float64(nl.N())))) + 2
		ensemble, err = hst.BuildEnsembleObserved(sub, r, 0, rng, obs.FromContext(ctx))
		if err != nil {
			return err
		}
		if cap(ar.allNodes) < nl.N() {
			ar.allNodes = make([]int, nl.N())
		}
		allNodes := ar.allNodes[:nl.N()]
		for i := range allNodes {
			allNodes[i] = i
		}
		bestTree, core = ensemble.BestCoreTreeSampled(allNodes, rng)
		stats.CoreNodes = len(core)
		if len(core) == 0 {
			return errors.New("treestar: empty tree core")
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Stage 3 (Lemmas 5 and 9): centroid decomposition of the best tree,
	// per-level star selection, final check. Leaf v of the tree is active
	// node v of the node-loss instance.
	var kept []int
	if err := stage(ctx, "stage3", func() error {
		if ar.loss == nil {
			ar.loss = make(map[int]float64, len(core))
		} else {
			clear(ar.loss)
		}
		loss := ar.loss
		for _, v := range core {
			loss[v] = nl.Loss[v]
		}
		// Target gain on the tree: the tree metric dominates the original, so
		// feasibility transfers to the original metric only after paying the
		// core stretch (Lemma 8); the final thinning restores the exact pair
		// gain, so a modest tree gain keeps the kept set large.
		treeGain := betaNode
		sel, treeStats, err := SelectOnTreeCtx(ctx, m, ensemble.Trees[bestTree], core, loss, betaNode, treeGain,
			TreeOptions{Faithful: p.Faithful, scratch: &ar.tree})
		if err != nil {
			return err
		}
		kept = sel
		stats.Tree = *treeStats
		stats.TreeKept = len(kept)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Stage 4: back to pairs — keep requests with both endpoints alive.
	var pairs []int
	if err := stage(ctx, "stage4", func() error {
		pairs = nodeloss.PairsWithBothEndpoints(mapping, kept)
		stats.PairsKept = len(pairs)
		if len(pairs) == 0 {
			// Guarantee progress: a single request is always feasible alone.
			longest := 0
			for i := 1; i < in.N(); i++ {
				if in.Length(i) > in.Length(longest) {
					longest = i
				}
			}
			pairs = []int{longest}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// Stage 5 (Lemma 8 / Proposition 3): thin to the full bidirectional
	// gain in the original metric under the square root assignment. For
	// kept sets large enough that the O(|pairs|²) thinning dominates the
	// engine build, build the affectance engine first — the Engine hook
	// picks dense rows, the sparse grid or the direct engine per
	// restricted instance, the dense cache by default; smaller sets thin
	// on the direct engine the thinning resolves itself.
	var final []int
	if err := stage(ctx, "stage5", func() error {
		powers := power.Powers(m, in, power.Sqrt())
		mThin := m
		var err error
		if len(pairs) >= 32 {
			var c sinr.Cache
			if p.Engine == nil {
				c = affect.New(m, sinr.Bidirectional, in, powers)
			} else if c, err = p.Engine(m, in, powers); err != nil {
				return err
			}
			mThin = m.WithCache(c)
		}
		final, err = coloring.ThinToGainCtx(ctx, mThin, in, sinr.Bidirectional, powers, pairs, m.Beta, &ar.thin)
		if err != nil {
			return err
		}
		stats.FinalPairs = len(final)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return final, stats, nil
}

// Coloring repeatedly extracts pipeline color classes until every request
// is colored, producing a complete bidirectional schedule under the square
// root power assignment. It is the fully constructive counterpart of
// Theorem 2's existence statement.
func (p Pipeline) Coloring(m sinr.Model, in *problem.Instance, rng *rand.Rand) (*problem.Schedule, error) {
	s, _, err := p.ColoringWithStats(context.Background(), m, in, rng)
	return s, err
}

// ColoringWithStats is Coloring, additionally reporting the per-stage
// diagnostics of the first extracted color class — the run over the full
// instance, and hence the most informative one. The context is checked
// before every extracted class and, inside a class, once per stage-3
// recursion level and once per stage-5 thinning round, so a canceled ctx
// aborts a long coloring mid-class rather than minutes later.
//
// Reusable buffers (one arena) are threaded through every class, and the
// per-class randomness is split up front: each color draws exactly one
// seed from rng and runs on its own derived stream — mirroring
// BuildEnsemble's per-tree seeds — so the stream consumed inside one
// class can never shift the classes after it.
func (p Pipeline) ColoringWithStats(ctx context.Context, m sinr.Model, in *problem.Instance, rng *rand.Rand) (*problem.Schedule, *PipelineStats, error) {
	if rng == nil {
		return nil, nil, errors.New("treestar: nil rng")
	}
	s := problem.NewSchedule(in.N())
	copy(s.Powers, power.Powers(m, in, power.Sqrt()))
	remaining := make([]int, in.N())
	for i := range remaining {
		remaining[i] = i
	}
	var firstStats *PipelineStats
	ar := &arena{}
	for color := 0; len(remaining) > 0; color++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		classRng := rand.New(rand.NewSource(rng.Int63()))
		subInst, mapping, err := in.Restrict(remaining)
		if err != nil {
			return nil, nil, err
		}
		class, stats, err := p.runCtx(ctx, m, subInst, classRng, ar)
		if err != nil {
			return nil, nil, err
		}
		if firstStats == nil {
			firstStats = stats
		}
		if len(class) == 0 {
			return nil, nil, errors.New("treestar: pipeline returned empty class")
		}
		inClass := make(map[int]bool, len(class))
		for _, sub := range class {
			orig := mapping[sub]
			s.Colors[orig] = color
			inClass[orig] = true
		}
		next := remaining[:0]
		for _, i := range remaining {
			if !inClass[i] {
				next = append(next, i)
			}
		}
		remaining = next
	}
	return s, firstStats, nil
}
