package coloring

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/affect"
	"repro/internal/lp"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// LPOptions tunes the LP-based coloring for ablation studies. The zero
// value reproduces the defaults.
type LPOptions struct {
	// DisableMaximality skips the greedy augmentation pass that fills each
	// class to maximality after the LP rounding (ablation A1).
	DisableMaximality bool
	// Kappa overrides the rounding divisor (default 2): candidate j is
	// kept with probability x_j/Kappa.
	Kappa float64
}

// LPStats reports diagnostics from one run of the LP-based coloring.
type LPStats struct {
	// Rounds is the number of outer (color) iterations.
	Rounds int
	// LPSolves is the total number of LPs solved.
	LPSolves int
	// LPValue accumulates the fractional optima encountered.
	LPValue float64
	// Forced counts rounds in which the selection was empty and the longest
	// remaining request was scheduled alone to guarantee progress.
	Forced int
}

// SqrtLPColoring implements the coloring algorithm of Theorem 15 for the
// bidirectional problem under the square root power assignment: a greedy
// outer loop that repeatedly extracts one color class with algorithm A
// (distance classes + packing LP + randomized rounding), giving an
// O(log n)-approximation of the optimal number of colors for p̄.
func SqrtLPColoring(m sinr.Model, in *problem.Instance, rng *rand.Rand) (*problem.Schedule, *LPStats, error) {
	return SqrtLPColoringOpts(m, in, rng, LPOptions{})
}

// SqrtLPColoringOpts is SqrtLPColoring with explicit tuning options.
func SqrtLPColoringOpts(m sinr.Model, in *problem.Instance, rng *rand.Rand, opts LPOptions) (*problem.Schedule, *LPStats, error) {
	return SqrtLPColoringCtx(context.Background(), m, in, rng, opts)
}

// SqrtLPColoringCtx is SqrtLPColoringOpts with cooperative cancellation:
// the context is checked before every outer color round, so a canceled
// ctx aborts a long coloring between LP solves. Unless the model already
// carries an affectance engine covering the square root powers, the
// coloring builds the dense one for its interference queries.
func SqrtLPColoringCtx(ctx context.Context, m sinr.Model, in *problem.Instance, rng *rand.Rand, opts LPOptions) (*problem.Schedule, *LPStats, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if rng == nil {
		return nil, nil, errors.New("coloring: nil rng")
	}
	powers := power.Powers(m, in, power.Sqrt())
	if m.CacheFor(in, powers) == nil {
		m = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
	}
	s := problem.NewSchedule(in.N())
	copy(s.Powers, powers)

	remaining := make([]int, in.N())
	for i := range remaining {
		remaining[i] = i
	}
	stats := &LPStats{}
	for color := 0; len(remaining) > 0; color++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		class, err := algorithmA(m, in, powers, remaining, rng, stats, opts)
		if err != nil {
			return nil, nil, err
		}
		if len(class) == 0 {
			// Guarantee progress: a single request is always feasible alone
			// (zero noise), so schedule the longest remaining one.
			longest := remaining[0]
			for _, j := range remaining {
				if in.Length(j) > in.Length(longest) {
					longest = j
				}
			}
			class = []int{longest}
			stats.Forced++
		}
		for _, j := range class {
			s.Colors[j] = color
		}
		inClass := make(map[int]bool, len(class))
		for _, j := range class {
			inClass[j] = true
		}
		next := remaining[:0]
		for _, j := range remaining {
			if !inClass[j] {
				next = append(next, j)
			}
		}
		remaining = next
		stats.Rounds++
	}
	return s, stats, nil
}

// MaxFeasibleSubsetLP runs a single invocation of algorithm A over the
// whole instance under the square root assignment: an LP-guided one-shot
// capacity maximizer for one time slot (the building block Theorem 15
// iterates). The result is feasible at the full gain β.
func MaxFeasibleSubsetLP(m sinr.Model, in *problem.Instance, rng *rand.Rand) ([]int, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("coloring: nil rng")
	}
	powers := power.Powers(m, in, power.Sqrt())
	if m.CacheFor(in, powers) == nil {
		m = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
	}
	all := make([]int, in.N())
	for i := range all {
		all[i] = i
	}
	stats := &LPStats{}
	return algorithmA(m, in, powers, all, rng, stats, LPOptions{})
}

// algorithmA extracts one color class from the remaining requests: it
// partitions them into distance classes C_i (lengths within [4^i, 4^{i+1})),
// processes classes from short to long, selects a subset of each class by a
// packing LP plus randomized rounding while honouring the interference
// budget left by previously selected classes, and finally thins the union
// back to the full gain β (Proposition 3, covering the constant-factor
// slack of Lemma 19 and the within-class length spread).
func algorithmA(m sinr.Model, in *problem.Instance, powers []float64, remaining []int, rng *rand.Rand, stats *LPStats, opts LPOptions) ([]int, error) {
	eng := affect.Resolve(m, sinr.Bidirectional, in, powers)
	classes := distanceClasses(in, remaining)
	var selected []int
	for _, class := range classes {
		cand := candidatesWithinBudget(m, in, eng, selected, class)
		if len(cand) == 0 {
			continue
		}
		picked, err := selectByLP(m, in, eng, selected, cand, rng, stats, opts)
		if err != nil {
			return nil, err
		}
		selected = append(selected, picked...)
	}
	if len(selected) == 0 {
		return nil, nil
	}
	// Restore the exact gain β for the final class.
	final, err := ThinToGain(m, in, sinr.Bidirectional, powers, selected, m.Beta)
	if err != nil {
		return nil, err
	}
	if opts.DisableMaximality {
		return final, nil
	}
	// Maximality pass: the LP budgets are conservative (they reserve a
	// gain-β/2 allowance per distance class), so requests rejected by the
	// rounding may still fit at the exact gain β. Greedily add them,
	// longest first; this only grows the class and preserves feasibility
	// (with the sparse engine's conservative margins, admission implies
	// exact feasibility of the grown class).
	inFinal := make(map[int]bool, len(final))
	for _, j := range final {
		inFinal[j] = true
	}
	rest := make([]int, 0, len(remaining))
	for _, j := range remaining {
		if !inFinal[j] {
			rest = append(rest, j)
		}
	}
	sort.Slice(rest, func(a, b int) bool { return in.Length(rest[a]) > in.Length(rest[b]) })
	tr := eng.NewSetTracker(m, sinr.Bidirectional)
	for _, j := range final {
		tr.Add(j)
	}
	for _, j := range rest {
		if tr.CanAdd(j) {
			tr.Add(j)
		}
	}
	return tr.Members(), nil
}

// distanceClasses partitions the requests by length into geometric classes
// with ratio 4 (the paper's classes C_i), ordered from short to long.
func distanceClasses(in *problem.Instance, set []int) [][]int {
	if len(set) == 0 {
		return nil
	}
	minLen := math.Inf(1)
	for _, j := range set {
		if l := in.Length(j); l < minLen {
			minLen = l
		}
	}
	grouped := make(map[int][]int)
	var keys []int
	for _, j := range set {
		c := int(math.Floor(math.Log(in.Length(j)/minLen) / math.Log(4)))
		if _, seen := grouped[c]; !seen {
			keys = append(keys, c)
		}
		grouped[c] = append(grouped[c], j)
	}
	sort.Ints(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, grouped[k])
	}
	return out
}

// budget returns the per-endpoint interference budget of request j: half of
// the gain-β/2 allowance, i.e. 1/(β·√ℓ_j). One half is granted to
// previously selected (shorter) classes, the other to the LP of j's own
// class.
func budget(m sinr.Model, in *problem.Instance, j int) float64 {
	return 1 / (m.Beta * math.Sqrt(m.RequestLoss(in, j)))
}

// candidatesWithinBudget keeps the requests of class whose endpoints
// currently receive at most their budget of interference from the already
// selected shorter requests (the set C'_i of the paper). With the sparse
// engine the interference is its conservative bound: over-estimates only
// tighten the budgets, never break them.
func candidatesWithinBudget(m sinr.Model, in *problem.Instance, eng affect.Engine, selected, class []int) []int {
	var out []int
	for _, j := range class {
		b := budget(m, in, j)
		if iu, iv := eng.InterferenceBound(selected, j); iu <= b && iv <= b {
			out = append(out, j)
		}
	}
	return out
}

// conflictFree keeps a maximal subset of cand in which no two requests
// have endpoints at distance zero from each other (e.g. tree edges sharing
// a node): such requests can never be simultaneous, and their infinite
// mutual interference must not reach the LP matrix. A zero-loss neighbor
// shows up as a non-finite affectance (powers are positive for the square
// root assignment, so p/0 = +Inf); the sparse engine stores such a pair
// exactly, because it shares a grid cell.
func conflictFree(eng affect.Engine, cand []int) []int {
	var out []int
	for _, j := range cand {
		ok := true
		for _, k := range out {
			if bu, bv := eng.PairBound(j, k); math.IsInf(bu, 1) || math.IsInf(bv, 1) || math.IsNaN(bu) || math.IsNaN(bv) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, j)
		}
	}
	return out
}

// selectByLP chooses a subset of cand that respects the interference budget
// at every candidate endpoint, by solving the packing LP of Lemma 16 and
// rounding, followed by an alteration step that repairs any violated budget
// by dropping offenders.
func selectByLP(m sinr.Model, in *problem.Instance, eng affect.Engine, selected, cand []int, rng *rand.Rand, stats *LPStats, opts LPOptions) ([]int, error) {
	cand = conflictFree(eng, cand)
	if len(cand) == 0 {
		return nil, nil
	}
	if len(cand) == 1 {
		return cand, nil
	}
	sol, err := lp.Solve(packingLP(m, in, eng, cand), 0)
	if err != nil {
		return nil, fmt.Errorf("coloring: class LP: %w", err)
	}
	stats.LPSolves++
	stats.LPValue += sol.Value

	// Randomized rounding: keep candidate j with probability x_j / kappa.
	// kappa trades selection size against repair work; 2 works well in
	// practice and the alteration below enforces correctness regardless.
	kappa := opts.Kappa
	if kappa <= 0 {
		kappa = 2
	}
	var picked []int
	for a, j := range cand {
		if rng.Float64() < sol.X[a]/kappa {
			picked = append(picked, j)
		}
	}
	if len(picked) == 0 && sol.Value > 0 {
		// Fall back on the largest fractional value to keep making progress.
		best := 0
		for a := range cand {
			if sol.X[a] > sol.X[best] {
				best = a
			}
		}
		picked = []int{cand[best]}
	}
	return repairBudget(m, in, eng, selected, picked), nil
}

// packingLP assembles the packing LP of Lemma 16 over cand. It has one
// constraint per candidate endpoint w, U then V per candidate in cand
// order: the interference from the other candidates (weighted by x) must
// stay within 2^α times w's budget — Claim 17's relaxation, which any
// gain-β feasible subset satisfies, so the LP optimum dominates s*_i. The
// entries are the engine's PairBound: exact over the dense and the direct
// engine, upper bounds over the sparse one, which only tighten the LP (by
// at most the engine's 1 + ε factor).
func packingLP(m sinr.Model, in *problem.Instance, eng affect.Engine, cand []int) lp.Problem {
	k := len(cand)
	relax := math.Pow(2, m.Alpha)
	rows := make([][]float64, 0, 2*k)
	rhs := make([]float64, 0, 2*k)
	for a, j := range cand {
		rowU, rowV := make([]float64, k), make([]float64, k)
		for b, j2 := range cand {
			if b != a {
				rowU[b], rowV[b] = eng.PairBound(j, j2)
			}
		}
		w := relax * budget(m, in, j)
		rows = append(rows, rowU, rowV)
		rhs = append(rhs, w, w)
	}
	obj := make([]float64, k)
	for i := range obj {
		obj[i] = 1
	}
	return lp.Problem{C: obj, A: rows, B: rhs}
}

// repairBudget drops requests from picked until, at every endpoint of every
// picked request, the interference from selected ∪ picked is within the
// endpoint's budget (counting the full budget for the combined set, since
// candidates already pre-passed the half granted to selected). The victim
// of each round is the picked request exerting the largest total
// interference on the other picked endpoints. With a sparse engine the
// interference and the offender scores are its conservative bounds, which
// can only drop more — the surviving set still meets the exact budgets.
func repairBudget(m sinr.Model, in *problem.Instance, eng affect.Engine, selected, picked []int) []int {
	for len(picked) > 0 {
		all := append(append([]int(nil), selected...), picked...)
		violated := false
		for _, j := range picked {
			b := 2 * budget(m, in, j) // full gain-β/2 allowance
			if iu, iv := eng.InterferenceBound(all, j); iu > b || iv > b {
				violated = true
				break
			}
		}
		if !violated {
			return picked
		}
		worst, worstScore := 0, math.Inf(-1)
		for a, j := range picked {
			var score float64
			for _, i := range picked {
				if i == j {
					continue
				}
				cu, cv := eng.PairBound(i, j)
				score += (cu + cv) * math.Sqrt(m.RequestLoss(in, i))
			}
			if score > worstScore {
				worstScore = score
				worst = a
			}
		}
		picked = append(picked[:worst], picked[worst+1:]...)
	}
	return picked
}
