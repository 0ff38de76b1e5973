package gridsched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// The reuse factor starts at initialReuse and doubles up to maxReuse.
const (
	initialReuse = 2
	maxReuse     = 64
)

// Schedule colors a 2-D Euclidean bidirectional instance with the
// length-class/grid-reuse scheme under square root powers and returns a
// verified schedule.
func Schedule(m sinr.Model, in *problem.Instance) (*problem.Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e, ok := in.Space.(*geom.Euclidean)
	if !ok || e.Dim() != 2 {
		return nil, errors.New("gridsched: requires a 2-dimensional Euclidean instance")
	}
	powers := power.Powers(m, in, power.Sqrt())

	classes := lengthClasses(in)
	s := problem.NewSchedule(in.N())
	copy(s.Powers, powers)
	base := 0
	for _, class := range classes {
		used, err := scheduleClass(m, in, e, powers, class, base, s)
		if err != nil {
			return nil, err
		}
		base += used
	}
	if err := m.CheckSchedule(in, sinr.Bidirectional, s); err != nil {
		return nil, fmt.Errorf("gridsched: verification failed: %w", err)
	}
	return s, nil
}

// lengthClasses buckets request indices by ⌊log2(length/minLength)⌋.
func lengthClasses(in *problem.Instance) [][]int {
	minLen := math.Inf(1)
	for i := 0; i < in.N(); i++ {
		if l := in.Length(i); l < minLen {
			minLen = l
		}
	}
	buckets := make(map[int][]int)
	maxKey := 0
	for i := 0; i < in.N(); i++ {
		k := int(math.Floor(math.Log2(in.Length(i) / minLen)))
		buckets[k] = append(buckets[k], i)
		if k > maxKey {
			maxKey = k
		}
	}
	var out [][]int
	for k := 0; k <= maxKey; k++ {
		if len(buckets[k]) > 0 {
			out = append(out, buckets[k])
		}
	}
	return out
}

// scheduleClass colors one length class starting at color offset base and
// returns the number of colors consumed. The reuse factor doubles until
// the class verifies.
func scheduleClass(m sinr.Model, in *problem.Instance, e *geom.Euclidean, powers []float64, class []int, base int, s *problem.Schedule) (int, error) {
	maxLen := 0.0
	for _, i := range class {
		if l := in.Length(i); l > maxLen {
			maxLen = l
		}
	}
	cell := 2 * maxLen // senders of one cell are within 2·cell of its receivers

	for k := initialReuse; k <= maxReuse; k *= 2 {
		colors, ok := tryReuse(m, in, e, powers, class, cell, k)
		if ok {
			// Compress the sparse (reuse-pattern, rank) colors into a
			// contiguous range so no color class is empty.
			remap := make(map[int]int)
			for _, c := range colors {
				if _, seen := remap[c]; !seen {
					remap[c] = len(remap)
				}
			}
			for i, c := range colors {
				s.Colors[class[i]] = base + remap[c]
			}
			return len(remap), nil
		}
	}
	return 0, fmt.Errorf("gridsched: class of %d requests did not verify up to reuse %d", len(class), maxReuse)
}

// tryReuse assigns colors with reuse factor k and verifies every class.
// The color of a request is (cellX mod k, cellY mod k, rank within cell),
// flattened; requests in one cell serialize, and cells sharing a color are
// ≥ (k-1) cells apart.
func tryReuse(m sinr.Model, in *problem.Instance, e *geom.Euclidean, powers []float64, class []int, cell float64, k int) ([]int, bool) {
	type cellKey struct{ x, y int }
	perCell := make(map[cellKey][]int)
	for _, i := range class {
		p := e.Point(in.Reqs[i].U)
		key := cellKey{x: int(math.Floor(p[0] / cell)), y: int(math.Floor(p[1] / cell))}
		perCell[key] = append(perCell[key], i)
	}
	maxRank := 0
	for _, members := range perCell {
		if len(members) > maxRank {
			maxRank = len(members)
		}
	}
	// Color = ((x mod k)·k + (y mod k))·maxRank + rank.
	colors := make([]int, len(class))
	pos := make(map[int]int, len(class))
	for a, i := range class {
		pos[i] = a
	}
	classColor := make(map[int][]int) // color -> request indices
	for key, members := range perCell {
		mx := ((key.x % k) + k) % k
		my := ((key.y % k) + k) % k
		for rank, i := range members {
			c := (mx*k+my)*maxRank + rank
			colors[pos[i]] = c
			classColor[c] = append(classColor[c], i)
		}
	}
	for _, members := range classColor {
		if !m.SetFeasible(in, sinr.Bidirectional, powers, members) {
			return nil, false
		}
	}
	return colors, true
}
