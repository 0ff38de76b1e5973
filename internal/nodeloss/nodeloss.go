package nodeloss

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// Instance is a node-loss scheduling instance: active nodes of a metric
// space, each with a loss parameter.
type Instance struct {
	// Space is the underlying metric over node ids.
	Space geom.Metric
	// Nodes are the active node ids (indices into Space).
	Nodes []int
	// Loss[i] is the loss parameter ℓ of active node i (parallel to Nodes).
	Loss []float64
}

// New validates and builds an instance.
func New(space geom.Metric, nodes []int, loss []float64) (*Instance, error) {
	if space == nil {
		return nil, errors.New("nodeloss: nil space")
	}
	if len(nodes) == 0 || len(nodes) != len(loss) {
		return nil, fmt.Errorf("nodeloss: %d nodes, %d losses", len(nodes), len(loss))
	}
	for k, v := range nodes {
		if v < 0 || v >= space.N() {
			return nil, fmt.Errorf("nodeloss: node %d out of range", v)
		}
		if !(loss[k] > 0) || math.IsInf(loss[k], 0) || math.IsNaN(loss[k]) {
			return nil, fmt.Errorf("nodeloss: invalid loss %g at node %d", loss[k], k)
		}
	}
	return &Instance{
		Space: space,
		Nodes: append([]int(nil), nodes...),
		Loss:  append([]float64(nil), loss...),
	}, nil
}

// N returns the number of active nodes.
func (nl *Instance) N() int { return len(nl.Nodes) }

// Dist returns the metric distance between active nodes i and j.
func (nl *Instance) Dist(i, j int) float64 { return nl.Space.Dist(nl.Nodes[i], nl.Nodes[j]) }

// SqrtPowers returns the square root power assignment p̄_i = √ℓ_i.
func (nl *Instance) SqrtPowers() []float64 {
	out := make([]float64, nl.N())
	for i, l := range nl.Loss {
		out[i] = math.Sqrt(l)
	}
	return out
}

// PairMapping relates a pair instance and its node-loss split.
type PairMapping struct {
	// NodeOfEndpoint[2i] and [2i+1] are the active-node indices of request
	// i's endpoints U and V.
	NodeOfEndpoint []int
	// PairOfNode[k] is the request index whose endpoint active node k is.
	PairOfNode []int
}

// FromPairs splits a bidirectional pair instance into the corresponding
// node-loss instance (Section 3.2): every request endpoint becomes an
// active node whose loss parameter is the loss of its own request. Requests
// must not share endpoint nodes (coincident nodes would make the node-loss
// interference infinite).
func FromPairs(m sinr.Model, in *problem.Instance) (*Instance, *PairMapping, error) {
	return FromPairsScratch(m, in, nil)
}

// Scratch holds the reusable backing buffers of FromPairsScratch. The
// zero value is ready to use; a scratch reused across calls amortizes
// every allocation of the split (the pipeline reuses one per coloring,
// across all extracted color classes).
type Scratch struct {
	nodes  []int
	loss   []float64
	endp   []int
	pairOf []int
	// seen[w] == epoch marks base node w as used by the current call; the
	// epoch bump replaces an O(n) clear (and the map of the original
	// implementation) per call.
	seen    []int64
	epoch   int64
	inst    Instance
	mapping PairMapping
}

// FromPairsScratch is FromPairs drawing every buffer from sc instead of
// the heap (a nil sc allocates fresh, exactly like FromPairs). The
// returned Instance and PairMapping alias sc's buffers: they are valid
// until the next FromPairsScratch call with the same scratch, and the
// caller must not retain them past it.
func FromPairsScratch(m sinr.Model, in *problem.Instance, sc *Scratch) (*Instance, *PairMapping, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	nn := 2 * in.N()
	if cap(sc.nodes) < nn {
		sc.nodes = make([]int, 0, nn)
		sc.loss = make([]float64, 0, nn)
		sc.endp = make([]int, nn)
		sc.pairOf = make([]int, 0, nn)
	}
	nodes, loss, pairOf := sc.nodes[:0], sc.loss[:0], sc.pairOf[:0]
	endp := sc.endp[:nn]
	if len(sc.seen) < in.Space.N() {
		sc.seen = make([]int64, in.Space.N())
		sc.epoch = 0
	}
	sc.epoch++
	for i, r := range in.Reqs {
		l := m.RequestLoss(in, i)
		for e, w := range [2]int{r.U, r.V} {
			if w < 0 || w >= in.Space.N() {
				return nil, nil, fmt.Errorf("nodeloss: node %d out of range", w)
			}
			if sc.seen[w] == sc.epoch {
				return nil, nil, fmt.Errorf("nodeloss: node %d used by more than one request", w)
			}
			sc.seen[w] = sc.epoch
			endp[2*i+e] = len(nodes)
			pairOf = append(pairOf, i)
			nodes = append(nodes, w)
			loss = append(loss, l)
		}
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("nodeloss: %d nodes, %d losses", 0, 0)
	}
	for k, l := range loss {
		if !(l > 0) || math.IsInf(l, 0) || math.IsNaN(l) {
			return nil, nil, fmt.Errorf("nodeloss: invalid loss %g at node %d", l, k)
		}
	}
	sc.nodes, sc.loss, sc.pairOf = nodes, loss, pairOf
	sc.inst = Instance{Space: in.Space, Nodes: nodes, Loss: loss}
	sc.mapping = PairMapping{NodeOfEndpoint: endp, PairOfNode: pairOf}
	return &sc.inst, &sc.mapping, nil
}

// PairGainToNodeGain converts a gain for the bidirectional pair problem to
// the gain guaranteed for the node-loss split: a set of pairs feasible with
// gain β yields a node set that is β/(2+β)-feasible (Section 3.2).
func PairGainToNodeGain(beta float64) float64 { return beta / (2 + beta) }

// Interference returns Σ_{j∈set, j≠i} p_j/ℓ(i,j) at active node i.
func (nl *Instance) Interference(m sinr.Model, powers []float64, set []int, i int) float64 {
	var sum float64
	for _, j := range set {
		if j == i {
			continue
		}
		d := nl.Dist(i, j)
		sum += powers[j] / m.Loss(d)
	}
	return sum
}

// Margin returns the normalized slack of node i's constraint within set at
// gain beta: (signal - beta·interference)/signal.
func (nl *Instance) Margin(m sinr.Model, beta float64, powers []float64, set []int, i int) float64 {
	signal := powers[i] / nl.Loss[i]
	if signal == 0 {
		return math.Inf(-1)
	}
	return (signal - beta*(nl.Interference(m, powers, set, i)+m.Noise)) / signal
}

const tol = 1e-9

// Feasible reports whether set is beta-feasible for the given powers.
func (nl *Instance) Feasible(m sinr.Model, beta float64, powers []float64, set []int) bool {
	for _, i := range set {
		if nl.Margin(m, beta, powers, set, i) < -tol {
			return false
		}
	}
	return true
}

// PairsWithBothEndpoints returns the request indices of the pair instance
// whose two endpoint nodes both appear in the node subset (given as
// active-node indices).
func PairsWithBothEndpoints(mapping *PairMapping, nodes []int) []int {
	in := make(map[int]bool, len(nodes))
	for _, k := range nodes {
		in[k] = true
	}
	n := len(mapping.NodeOfEndpoint) / 2
	var out []int
	for i := 0; i < n; i++ {
		if in[mapping.NodeOfEndpoint[2*i]] && in[mapping.NodeOfEndpoint[2*i+1]] {
			out = append(out, i)
		}
	}
	return out
}
