package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of the sorted
// samples: the smallest sample with at least a p share of the samples at
// or below it. It returns 0 for no samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, … that leaves at least ten of n samples beyond it, or 0 when even
// the median does not (n < 20). Beyond it a quantile rests on fewer than
// ten samples and is not worth reporting.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99, 99.999, 99.9999} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// latencySummary is a timing distribution reported as the median, p99 and
// the highest percentile that still has ten samples beyond it, with the
// sample count they rest on.
type latencySummary struct {
	Samples   int
	P50, P99  float64
	TailPct   float64
	TailValue float64
}

// summarize sorts the samples in place and reads the summary off them.
func summarize(samples []float64) latencySummary {
	sort.Float64s(samples)
	s := latencySummary{
		Samples: len(samples),
		P50:     quantile(samples, 0.50),
		P99:     quantile(samples, 0.99),
		TailPct: tailPercentile(len(samples)),
	}
	if s.TailPct > 0 {
		s.TailValue = quantile(samples, s.TailPct/100)
	}
	return s
}

// median returns the median of the values, the mean of the middle two
// for an even count, without reordering them; 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// chunkQuantiles returns the nearest-rank p-quantile of each chunk of the
// samples, in chunk order. ends[k] is the offset in samples where chunk k
// ends; chunks follow each other, and an empty chunk has no quantile.
// The samples are left in their order.
func chunkQuantiles(samples []float64, ends []int, p float64) []float64 {
	var out []float64
	var buf []float64
	begin := 0
	for _, end := range ends {
		if end > begin {
			buf = append(buf[:0], samples[begin:end]...)
			sort.Float64s(buf)
			out = append(out, quantile(buf, p))
		}
		begin = end
	}
	return out
}

// tally aggregates one solver family over a whole run: for each of its
// (instance, family) pairs, the requests one solve schedules and the wall
// time of every solve of the pair.
type tally struct {
	Solves, Requests int           // of all solves
	Wall             time.Duration // of all solves
	requests         map[int]int
	walls            map[int][]float64 // seconds
}

// add records one completed solve of pair, which scheduled n requests.
func (t *tally) add(pair, n int, wall time.Duration) {
	if t.walls == nil {
		t.requests, t.walls = map[int]int{}, map[int][]float64{}
	}
	t.Solves++
	t.Requests += n
	t.Wall += wall
	t.requests[pair] = n
	t.walls[pair] = append(t.walls[pair], wall.Seconds())
}

// reqPerSec is requests scheduled per wall second over one solve of each
// pair, each pair timed by the median of its solves: the sum of the
// pairs' requests over the sum of their median wall times. A pair solved
// three times or more thus shrugs off one solve slowed by the machine.
// It is 0 with no solves.
func (t *tally) reqPerSec() float64 {
	var req, wall float64
	for pair, w := range t.walls {
		req += float64(t.requests[pair])
		wall += median(w)
	}
	if !(wall > 0) {
		return 0
	}
	return req / wall
}

// timeAverage returns the time-weighted mean of values[k], the state that
// holds from times[k] until times[k+1], over [times[0], times[len-1]]. With
// fewer than two events, or no elapsed trace time, it is the plain mean.
func timeAverage(times []float64, values []int) float64 {
	if len(values) == 0 || len(times) != len(values) {
		return 0
	}
	span := times[len(times)-1] - times[0]
	if len(values) < 2 || !(span > 0) {
		var sum float64
		for _, v := range values {
			sum += float64(v)
		}
		return sum / float64(len(values))
	}
	var acc float64
	for k := 0; k+1 < len(values); k++ {
		acc += float64(values[k]) * (times[k+1] - times[k])
	}
	return acc / span
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether s is usable as a metric or workload
// name: it starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'.
func validMetricName(s string) bool { return metricName.MatchString(s) }
