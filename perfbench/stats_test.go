package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	oblivious "repro"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99}, {1_000_000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(len(s) - i) // descending: summarize must sort
	}
	got := summarize(s)
	if got.Samples != 1000 || got.P50 != 500 || got.P99 != 990 || got.TailPct != 99 || got.TailValue != 990 {
		t.Errorf("summarize = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median(5,1,3) = %g, want 3", got)
	}
	if odd[0] != 5 || odd[1] != 1 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of no values = %g, want 0", got)
	}
}

func TestChunkQuantiles(t *testing.T) {
	// Chunks [3 1 2], [] and [9 7 8 10]: the empty one has no quantile.
	s := []float64{3, 1, 2, 9, 7, 8, 10}
	got := chunkQuantiles(s, []int{3, 3, 7}, 0.5)
	if len(got) != 2 || got[0] != 2 || got[1] != 8 {
		t.Errorf("chunk medians = %v, want [2 8]", got)
	}
	if got := chunkQuantiles(s, []int{3, 7}, 1); got[0] != 3 || got[1] != 10 {
		t.Errorf("chunk maxima = %v, want [3 10]", got)
	}
	if s[0] != 3 || s[3] != 9 {
		t.Errorf("chunkQuantiles reordered its input: %v", s)
	}
	// One slow burst in one of five chunks moves the pooled p99 but not
	// the median of the chunks' p99s.
	var burst []float64
	var ends []int
	for c := 0; c < 5; c++ {
		for i := 0; i < 100; i++ {
			v := float64(i)
			if c == 2 && i%10 == 0 {
				v = 1000
			}
			burst = append(burst, v)
		}
		ends = append(ends, len(burst))
	}
	if got := median(chunkQuantiles(burst, ends, 0.99)); got != 98 {
		t.Errorf("median chunk p99 = %g, want 98", got)
	}
}

func TestTallyThroughput(t *testing.T) {
	var tl tally
	if got := tl.reqPerSec(); got != 0 {
		t.Errorf("empty tally = %g req/s, want 0", got)
	}
	// Pair 0 takes 0.5 s, once 5 s; pair 1 takes 1.5 s. The medians
	// aggregate to 1024 requests in 2 s, not to the mean of the per-solve
	// rates, and the one slow solve does not count.
	for _, w := range []time.Duration{500, 5000, 500} {
		tl.add(0, 512, w*time.Millisecond)
	}
	tl.add(1, 512, 1500*time.Millisecond)
	if got := tl.reqPerSec(); got != 512 {
		t.Errorf("reqPerSec = %g, want 512", got)
	}
	if tl.Solves != 4 || tl.Requests != 2048 || tl.Wall != 7500*time.Millisecond {
		t.Errorf("tally = %+v", tl)
	}
}

func TestTimeAverage(t *testing.T) {
	// 2 slots for 1 time unit, then 4 slots for 3 units: (2+12)/4.
	if got := timeAverage([]float64{0, 1, 4}, []int{2, 4, 9}); got != 3.5 {
		t.Errorf("timeAverage = %g, want 3.5", got)
	}
	if got := timeAverage([]float64{5}, []int{3}); got != 3 {
		t.Errorf("single event = %g, want 3", got)
	}
	if got := timeAverage([]float64{1, 1}, []int{2, 4}); got != 3 {
		t.Errorf("no elapsed time = %g, want the plain mean 3", got)
	}
	if got := timeAverage(nil, nil); got != 0 {
		t.Errorf("no events = %g, want 0", got)
	}
}

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"setup_s", "event_us.p99", "greedy.req_per_s", "paper-512", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "µs", "a/b", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program:
// the same workloads, and the same metric names and units in the same
// order, every name valid.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !validMetricName(w.Name) {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []m, want []struct{ name, unit string }, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || !validMetricName(got[i].Name) {
				t.Errorf("%s %d: %s [%s], program has %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
			if bounded != (got[i].Bound != nil) || (bounded && !(*got[i].Bound > 0 && *got[i].Bound <= 0.25)) {
				t.Errorf("%s: bad bound", got[i].Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestScheduleHashIsBitwise(t *testing.T) {
	h := func(colors []int, powers []float64) uint64 {
		return scheduleHash(&oblivious.Schedule{Colors: colors, Powers: powers})
	}
	base := h([]int{0, 1, 0}, []float64{1, 2, 3})
	if base != h([]int{0, 1, 0}, []float64{1, 2, 3}) {
		t.Error("equal schedules hash differently")
	}
	if base == h([]int{0, 1, 0}, []float64{1, 2, math.Nextafter(3, 4)}) {
		t.Error("a one-ulp power change is not seen")
	}
	if base == h([]int{0, 1, 1}, []float64{1, 2, 3}) {
		t.Error("a color change is not seen")
	}
}
