package coloring

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/affect"
	"repro/internal/par"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// ThinStrategy selects the victim heuristic of the thinning loop; the
// variants exist for the ablation experiment (E14).
type ThinStrategy int

const (
	// ThinWorstOffender removes the request exerting the largest total
	// normalized interference on the rest (the default).
	ThinWorstOffender ThinStrategy = iota + 1
	// ThinWorstMargin removes the request whose own constraint is most
	// violated.
	ThinWorstMargin
	// ThinRandom removes a uniformly random request.
	ThinRandom
)

// String names the strategy for experiment output.
func (s ThinStrategy) String() string {
	switch s {
	case ThinWorstOffender:
		return "worst-offender"
	case ThinWorstMargin:
		return "worst-margin"
	case ThinRandom:
		return "random"
	default:
		return fmt.Sprintf("ThinStrategy(%d)", int(s))
	}
}

// ThinToGain constructively realizes Proposition 3: given a set of requests
// and powers (typically feasible with gain m.Beta), it returns a subset that
// satisfies the SINR constraints with the more restrictive gain betaPrime ≥
// m.Beta. The paper proves a subset of size ≥ (β/8β')·|S| exists; this
// implementation removes, while any constraint is violated at gain
// betaPrime, the request that exerts the largest total normalized
// interference on the rest — a greedy that meets the constant-fraction
// bound on all workloads exercised by the tests and experiments (E5).
//
// The returned subset preserves the input order of the surviving requests.
func ThinToGain(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, set []int, betaPrime float64) ([]int, error) {
	return ThinToGainCtx(context.Background(), m, in, v, powers, set, betaPrime, nil)
}

// ThinToGainCtx is ThinToGain polling ctx once per removal round — a
// canceled context aborts a long thinning mid-set instead of after it —
// and drawing its score buffers from sc when non-nil (see ThinScratch).
func ThinToGainCtx(ctx context.Context, m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, set []int, betaPrime float64, sc *ThinScratch) ([]int, error) {
	return ThinToGainStrategyCtx(ctx, m, in, v, powers, set, betaPrime, ThinWorstOffender, nil, sc)
}

// ThinToGainStrategy is ThinToGain with an explicit victim heuristic; rng
// is required only by ThinRandom.
//
// The loop runs on an incremental interference tracker of the engine
// affect.Resolve picks: feasibility probes and offender scores are
// updated in O(|set|) per removal instead of re-scanned in O(|set|²),
// making the whole thinning O(|set|²) pair evaluations instead of
// O(|set|³).
func ThinToGainStrategy(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, set []int, betaPrime float64, strat ThinStrategy, rng *rand.Rand) ([]int, error) {
	return ThinToGainStrategyCtx(context.Background(), m, in, v, powers, set, betaPrime, strat, rng, nil)
}

// ThinScratch holds the reusable buffers of the tracked thinning loop.
// The zero value is ready; one scratch reused across calls (the pipeline
// keeps one per coloring) amortizes the O(n) score allocations. A
// scratch must not be shared by concurrent thinning calls.
type ThinScratch struct {
	score []float64
	inv   []float64
}

// buffers returns the score and inverse-signal slices, reallocating only
// on growth. Entries are not cleared: the initial score scan writes
// every member's entry before any read.
func (sc *ThinScratch) buffers(n, members int) (score, inv []float64) {
	if cap(sc.score) < n {
		sc.score = make([]float64, n)
	}
	if cap(sc.inv) < members {
		sc.inv = make([]float64, members)
	}
	return sc.score[:n], sc.inv[:members]
}

// ThinToGainStrategyCtx is ThinToGainStrategy with cancellation (ctx is
// polled once per removal round) and optional buffer reuse through sc.
func ThinToGainStrategyCtx(ctx context.Context, m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, set []int, betaPrime float64, strat ThinStrategy, rng *rand.Rand, sc *ThinScratch) ([]int, error) {
	if betaPrime < m.Beta {
		return nil, fmt.Errorf("coloring: betaPrime %g below model gain %g", betaPrime, m.Beta)
	}
	if strat == ThinRandom && rng == nil {
		return nil, errors.New("coloring: ThinRandom needs an rng")
	}
	strict := m.WithBeta(betaPrime)
	eng := affect.Resolve(strict, v, in, powers)
	// tot(i, j) is the worst-endpoint interference j adds at i, the
	// worst-offender score numerator.
	tot := func(i, j int) float64 {
		b1, b2 := eng.PairBound(i, j)
		if v == sinr.Bidirectional && b2 > b1 {
			return b2
		}
		return b1
	}
	return thinWithTracker(ctx, eng.NewSetTracker(strict, v), eng.Signals(), tot, set, strat, rng, sc)
}

// thinWithTracker is the victim-selection loop: the set lives in the
// tracker, whose accumulators answer feasibility in O(|set|), and the
// worst-offender scores are maintained incrementally through tot — on
// removing victim w, score[j] only loses j's contribution at w. Victims
// are picked by scanning the members in input order with strict
// comparisons. With a conservative (sparse) engine the margins and
// scores are upper-bound based, which only over-thins: the survivors
// are feasible at the strict gain under the exact constraints.
// The caller hands in a tracker it just built, so the initial Add sweep
// needs no Reset.
//
//oblint:fresh the caller passes a freshly constructed tracker
//oblint:hotpath
func thinWithTracker(ctx context.Context, tr sinr.SetTracker, signals []float64, tot func(i, j int) float64, set []int, strat ThinStrategy, rng *rand.Rand, sc *ThinScratch) ([]int, error) {
	for _, j := range set {
		tr.Add(j)
	}
	var score []float64
	if strat != ThinWorstMargin && strat != ThinRandom {
		if sc == nil {
			sc = &ThinScratch{}
		}
		var inv []float64
		score, inv = sc.buffers(len(signals), tr.Len())
		initThinScores(tr, signals, tot, score, inv)
	}

	for tr.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr.SetFeasible() {
			return tr.Members(), nil
		}
		var victim int
		switch strat {
		case ThinWorstMargin:
			_, victim = tr.WorstMargin()
		case ThinRandom:
			victim = tr.At(rng.Intn(tr.Len()))
		default:
			if tr.Len() == 2 {
				// Two members left: each score is the single mutual term,
				// and in the bidirectional variant under the square root
				// assignment the two are mathematically equal, so the
				// running sums' rounding would pick the victim. Take the
				// terms fresh, as a from-scratch scan of the set does.
				a, b := tr.At(0), tr.At(1)
				score[a] = tot(b, a) / signals[b]
				score[b] = tot(a, b) / signals[a]
			}
			worst, worstScore := -1, math.Inf(-1)
			for k := 0; k < tr.Len(); k++ {
				if j := tr.At(k); score[j] > worstScore {
					worstScore = score[j]
					worst = j
				}
			}
			victim = worst
		}
		if victim < 0 {
			// Every candidate score/margin compared false (possible only
			// with pathological non-finite inputs); make progress anyway.
			victim = tr.At(0)
		}
		var redo []int
		if score != nil {
			// Subtracting a non-finite term (zero-distance pair → +Inf
			// affectance) would leave NaN; recompute those from scratch
			// against the post-removal set below.
			inv := 1 / signals[victim]
			for k := 0; k < tr.Len(); k++ {
				j := tr.At(k)
				if j == victim {
					continue
				}
				if d := tot(victim, j) * inv; isFinite(d) && isFinite(score[j]) {
					score[j] -= d
				} else {
					redo = append(redo, j) //oblint:ignore cold path, hit only on non-finite scores
				}
			}
			score[victim] = 0
		}
		tr.Remove(victim)
		for _, j := range redo {
			score[j] = 0
			for k := 0; k < tr.Len(); k++ {
				if i := tr.At(k); i != j {
					score[j] += tot(i, j) / signals[i]
				}
			}
		}
	}
	return nil, errors.New("coloring: thinning removed every request")
}

// thinParallelThreshold is the member count above which the O(|set|²)
// initial score scan fans out; below it the goroutine overhead exceeds
// the scan.
const thinParallelThreshold = 256

// initThinScores fills score[j] = Σ_{i≠j} tot(i,j)/signals[i] for every
// tracked member j. Each member's sum is computed independently, inner
// loop in member order, so the result is bitwise-identical whether the
// members are scanned sequentially or fanned out across the worker pool
// — removal order, and hence the schedule, cannot depend on GOMAXPROCS.
//
//oblint:hotpath
func initThinScores(tr sinr.SetTracker, signals []float64, tot func(i, j int) float64, score, inv []float64) {
	members := tr.Len()
	for k := 0; k < members; k++ {
		inv[k] = 1 / signals[tr.At(k)]
	}
	sumAt := func(l int) {
		j := tr.At(l)
		var s float64
		for k := 0; k < members; k++ {
			if i := tr.At(k); i != j {
				s += tot(i, j) * inv[k]
			}
		}
		score[j] = s
	}
	if members >= thinParallelThreshold {
		par.ForEach(members, sumAt)
		return
	}
	for l := 0; l < members; l++ {
		sumAt(l)
	}
}

// isFinite reports whether f is neither ±Inf nor NaN.
func isFinite(f float64) bool {
	return !math.IsInf(f, 0) && !math.IsNaN(f)
}

// ColorWithGain constructively realizes Proposition 4: starting from a set
// that is feasible with gain m.Beta under the given powers, it produces a
// coloring in which every class satisfies the stronger gain betaPrime. The
// paper shows O(β'/β · log|S|) colors suffice; the greedy repeatedly peels
// off a ThinToGain subset.
func ColorWithGain(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, set []int, betaPrime float64) ([][]int, error) {
	remaining := append([]int(nil), set...)
	var classes [][]int
	for len(remaining) > 0 {
		class, err := ThinToGain(m, in, v, powers, remaining, betaPrime)
		if err != nil {
			return nil, err
		}
		if len(class) == 0 {
			return nil, errors.New("coloring: empty class from thinning")
		}
		classes = append(classes, class)
		inClass := make(map[int]bool, len(class))
		for _, i := range class {
			inClass[i] = true
		}
		next := remaining[:0]
		for _, i := range remaining {
			if !inClass[i] {
				next = append(next, i)
			}
		}
		remaining = next
	}
	return classes, nil
}
