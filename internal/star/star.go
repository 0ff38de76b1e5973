package star

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/powerctl"
	"repro/internal/sinr"
)

// Instance is a node-loss instance on a star metric: node i sits at
// distance Radii[i] from the center and carries loss parameter Loss[i].
// The metric distance between distinct nodes i and j is Radii[i]+Radii[j].
type Instance struct {
	Radii []float64
	Loss  []float64
}

// New validates and builds a star instance.
func New(radii, loss []float64) (*Instance, error) {
	if len(radii) == 0 || len(radii) != len(loss) {
		return nil, fmt.Errorf("star: %d radii, %d losses", len(radii), len(loss))
	}
	for i := range radii {
		if !(radii[i] > 0) || math.IsInf(radii[i], 0) {
			return nil, fmt.Errorf("star: invalid radius %g at node %d", radii[i], i)
		}
		if !(loss[i] > 0) || math.IsInf(loss[i], 0) {
			return nil, fmt.Errorf("star: invalid loss %g at node %d", loss[i], i)
		}
	}
	return &Instance{
		Radii: append([]float64(nil), radii...),
		Loss:  append([]float64(nil), loss...),
	}, nil
}

// N returns the number of nodes.
func (st *Instance) N() int { return len(st.Radii) }

// Decay returns d_i = δ_i^α, the loss between node i and the star center.
func (st *Instance) Decay(m sinr.Model, i int) float64 { return m.Loss(st.Radii[i]) }

// SqrtPowers returns the square root assignment p̄_i = √ℓ_i.
func (st *Instance) SqrtPowers() []float64 {
	out := make([]float64, st.N())
	for i, l := range st.Loss {
		out[i] = math.Sqrt(l)
	}
	return out
}

// Interference returns Σ_{j∈set, j≠i} p_j/(δ_i+δ_j)^α at node i.
func (st *Instance) Interference(m sinr.Model, powers []float64, set []int, i int) float64 {
	var sum float64
	for _, j := range set {
		if j == i {
			continue
		}
		sum += powers[j] / m.Loss(st.Radii[i]+st.Radii[j])
	}
	return sum
}

const tol = 1e-9

// Feasible reports whether set is beta-feasible under the given powers.
func (st *Instance) Feasible(m sinr.Model, beta float64, powers []float64, set []int) bool {
	for _, i := range set {
		signal := powers[i] / st.Loss[i]
		if signal < beta*(st.Interference(m, powers, set, i)+m.Noise)*(1-tol) {
			return false
		}
	}
	return true
}

// OptimalGain returns the largest gain β* for which some power assignment
// makes the whole star instance feasible: β* = 1/ρ(M) for the matrix
// M_ij = ℓ_i/ℓ(i,j) (Perron–Frobenius, computed by power iteration).
func (st *Instance) OptimalGain(m sinr.Model) float64 {
	n := st.N()
	if n == 1 {
		return math.Inf(1)
	}
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			row[j] = st.Loss[i] / m.Loss(st.Radii[i]+st.Radii[j])
		}
		rows[i] = row
	}
	apply := func(dst, src []float64) {
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += rows[i][j] * src[j]
			}
			dst[i] = s
		}
	}
	rho := powerctl.GrowthRate(apply, n)
	if rho == 0 {
		return math.Inf(1)
	}
	return 1 / rho
}

// SelectStats counts the nodes removed by each stage of Select.
type SelectStats struct {
	// DroppedMarkov counts nodes dropped by the per-class Markov step of
	// Claim 12 (largest hypothetical loss parameters).
	DroppedMarkov int
	// DroppedInterference counts nodes whose measured interference from
	// lower or higher decay classes exceeded half their signal budget
	// (Lemma 11's selection rule).
	DroppedInterference int
	// DroppedCrowding counts large-loss nodes dropped by the crowding rule
	// of Section 4.4 (too many small-loss nodes between consecutive
	// large-loss nodes).
	DroppedCrowding int
	// DroppedRepair counts nodes removed by the final verification pass.
	DroppedRepair int
}

// Dropped returns the total number of dropped nodes.
func (s *SelectStats) Dropped() int {
	return s.DroppedMarkov + s.DroppedInterference + s.DroppedCrowding + s.DroppedRepair
}

// Select constructively realizes Lemma 5: assuming the instance is
// betaPrime-feasible under some power assignment, it returns a subset that
// is beta-feasible (beta ≤ betaPrime) under the square root assignment,
// dropping O((beta/betaPrime)^{2/3} + small-class noise) of the nodes.
func Select(m sinr.Model, st *Instance, betaPrime, beta float64) ([]int, *SelectStats, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if !(beta > 0) || !(betaPrime > 0) {
		return nil, nil, fmt.Errorf("star: gains must be positive, got beta=%g betaPrime=%g", beta, betaPrime)
	}
	if beta > betaPrime {
		return nil, nil, fmt.Errorf("star: beta %g exceeds betaPrime %g", beta, betaPrime)
	}
	n := st.N()
	stats := &SelectStats{}
	if n == 1 {
		return []int{0}, stats, nil
	}

	// Rescale so that every decay d_u > 1 (W.l.o.g. step of Lemma 11's
	// proof). Scaling distances by s and losses by s^α preserves
	// feasibility under the square root assignment.
	minR := math.Inf(1)
	for _, r := range st.Radii {
		if r < minR {
			minR = r
		}
	}
	s := 2 / minR
	sa := m.Loss(s)
	radii := make([]float64, n)
	loss := make([]float64, n)
	for i := range radii {
		radii[i] = st.Radii[i] * s
		loss[i] = st.Loss[i] * sa
	}
	decay := make([]float64, n)
	for i := range decay {
		decay[i] = m.Loss(radii[i])
	}

	// Large/small loss split: a_i = ℓ_i/d_i against 2^{α+1}/β'.
	thresholdA := math.Pow(2, m.Alpha+1) / betaPrime
	large := make([]bool, n)
	lossHyp := make([]float64, n) // hypothetical (reduced) losses ℓ'
	for i := range lossHyp {
		lossHyp[i] = loss[i]
		if a := loss[i] / decay[i]; a > thresholdA {
			large[i] = true
			lossHyp[i] = decay[i] * thresholdA
		}
	}

	// β'' for the small-loss stage (constant c1 of Section 4.4).
	betaSmall := (math.Pow(2, m.Alpha) + 1) * beta
	eps := math.Pow(betaSmall/betaPrime, 2.0/3.0)
	if eps > 0.9 {
		eps = 0.9
	}

	// Decay classes D_j = {u : 2^{j-1} < d_u ≤ 2^j}.
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = int(math.Ceil(math.Log2(decay[i])))
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	// Markov step (Claim 12): within each class drop the eps-fraction of
	// nodes with the largest hypothetical loss parameters.
	classes := make(map[int][]int)
	for i := 0; i < n; i++ {
		classes[classOf[i]] = append(classes[classOf[i]], i)
	}
	for _, members := range classes {
		drop := int(math.Floor(eps * float64(len(members))))
		if drop == 0 {
			continue
		}
		sorted := append([]int(nil), members...)
		sort.Slice(sorted, func(a, b int) bool { return lossHyp[sorted[a]] > lossHyp[sorted[b]] })
		for _, u := range sorted[:drop] {
			alive[u] = false
			stats.DroppedMarkov++
		}
	}

	// Interference selection (Lemma 11): under √ℓ' powers, keep nodes whose
	// interference from lower-or-equal classes and from higher classes each
	// stay within half the β''-budget.
	pHyp := make([]float64, n)
	for i := range pHyp {
		pHyp[i] = math.Sqrt(lossHyp[i])
	}
	var interfDrop []int
	for u := 0; u < n; u++ {
		if !alive[u] {
			continue
		}
		var low, high float64
		for v := 0; v < n; v++ {
			if v == u || !alive[v] {
				continue
			}
			contrib := pHyp[v] / m.Loss(radii[u]+radii[v])
			if classOf[v] <= classOf[u] {
				low += contrib
			} else {
				high += contrib
			}
		}
		budget := 1 / (2 * betaSmall * math.Sqrt(lossHyp[u]))
		if low > budget || high > budget {
			interfDrop = append(interfDrop, u)
		}
	}
	for _, u := range interfDrop {
		alive[u] = false
		stats.DroppedInterference++
	}

	// Crowding rule (Section 4.4): order nodes by decay; for each surviving
	// large-loss node i, count the surviving small-loss nodes in the decay
	// intervals adjacent to i (S_i and S_succ(i)); drop i if the block
	// exceeds β'/β''.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if alive[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return decay[order[a]] < decay[order[b]] })
	limit := betaPrime / betaSmall
	var crowded []int
	for pos, i := range order {
		if !large[i] {
			continue
		}
		// S_i: small-loss nodes between the previous large-loss node and i;
		// S_succ: between i and the next large-loss node.
		count := 1
		for q := pos - 1; q >= 0 && !large[order[q]]; q-- {
			count++
		}
		for q := pos + 1; q < len(order) && !large[order[q]]; q++ {
			count++
		}
		if float64(count) > limit {
			crowded = append(crowded, i)
		}
	}
	for _, u := range crowded {
		alive[u] = false
		stats.DroppedCrowding++
	}

	// Final verification against the real loss parameters under the real
	// square root assignment at gain beta; greedily repair any residual
	// violations (covers the constant-factor slack of Lemmas 10, 13, 14).
	kept := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if alive[i] {
			kept = append(kept, i)
		}
	}
	kept, repaired := st.thinToGain(m, beta, kept)
	stats.DroppedRepair = repaired
	if len(kept) == 0 {
		return nil, stats, errors.New("star: selection removed every node")
	}
	return kept, stats, nil
}

// thinToGain greedily removes nodes (worst total normalized interference
// first) until set is gain-feasible under the square root assignment, and
// returns the survivors with the number of removals.
func (st *Instance) thinToGain(m sinr.Model, gain float64, set []int) ([]int, int) {
	powers := st.SqrtPowers()
	kept := append([]int(nil), set...)
	var removed int
	for len(kept) > 0 && !st.Feasible(m, gain, powers, kept) {
		worst, worstScore := 0, math.Inf(-1)
		for a, j := range kept {
			var score float64
			for _, i := range kept {
				if i == j {
					continue
				}
				score += powers[j] / m.Loss(st.Radii[i]+st.Radii[j]) * st.Loss[i] / powers[i]
			}
			if score > worstScore {
				worstScore = score
				worst = a
			}
		}
		kept = append(kept[:worst], kept[worst+1:]...)
		removed++
	}
	return kept, removed
}

// SelectLight is the empirical counterpart of Select used inside the
// Theorem 2 pipeline: it skips the worst-case classification machinery and
// simply thins the star to the target gain under the square root
// assignment. It retains far more nodes than the worst-case parameterized
// Select on benign inputs while guaranteeing the same postcondition.
func SelectLight(m sinr.Model, st *Instance, gain float64) ([]int, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(gain > 0) {
		return nil, fmt.Errorf("star: gain must be positive, got %g", gain)
	}
	all := make([]int, st.N())
	for i := range all {
		all[i] = i
	}
	kept, _ := st.thinToGain(m, gain, all)
	return kept, nil
}

// Random generates a star instance with log-uniform radii in
// [1, radiusSpread] and loss parameters ℓ_i = d_i·a_i with log-uniform
// a_i in [aMin, aMax]. It is the workload generator for experiment E7.
func Random(rng *rand.Rand, m sinr.Model, n int, radiusSpread, aMin, aMax float64) (*Instance, error) {
	if n <= 0 {
		return nil, errors.New("star: n must be positive")
	}
	if !(radiusSpread >= 1) || !(0 < aMin && aMin <= aMax) {
		return nil, fmt.Errorf("star: invalid parameters spread=%g aMin=%g aMax=%g", radiusSpread, aMin, aMax)
	}
	radii := make([]float64, n)
	loss := make([]float64, n)
	for i := 0; i < n; i++ {
		radii[i] = math.Exp(rng.Float64() * math.Log(radiusSpread))
		a := aMin * math.Exp(rng.Float64()*math.Log(aMax/aMin))
		loss[i] = m.Loss(radii[i]) * a
	}
	return New(radii, loss)
}
