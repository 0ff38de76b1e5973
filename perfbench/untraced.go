package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"time"

	oblivious "repro"
	"repro/internal/online/sim"
)

// endToEnd lists the untraced run's metrics with their units, in the
// order BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"greedy.req_per_s", "req/s"},
	{"lp.req_per_s", "req/s"},
	{"pipeline.req_per_s", "req/s"},
	{"distributed.req_per_s", "req/s"},
	{"online.req_per_s", "req/s"},
	{"colors", "slots"},
	{"arrive_us.p50", "us"},
	{"arrive_us.p99", "us"},
	{"depart_us.p50", "us"},
	{"depart_us.p99", "us"},
	{"events_per_s", "events/s"},
	{"slots.mean", "slots"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// scheduleHash fingerprints a schedule bitwise: every color and the IEEE
// bits of every power.
func scheduleHash(s *oblivious.Schedule) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(s.Colors)))
	for i, c := range s.Colors {
		put(uint64(int64(c)))
		put(math.Float64bits(s.Powers[i]))
	}
	return h.Sum64()
}

// chunks splits the measured churn events into k nearly equal parts.
func chunks(tr sim.Trace, k int) []sim.Trace {
	if k < 1 {
		k = 1
	}
	out := make([]sim.Trace, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, tr[i*len(tr)/k:(i+1)*len(tr)/k])
	}
	return out
}

// runUntraced is the end-to-end run. After set-up it makes whole passes
// over the (instance, family) pairs, round-robin, until the seconds have
// elapsed: always at least one. Whole passes keep every family's mix of
// instances the same in every run. The churn traces are replayed in
// chunks spread evenly over the solves of the workload's expected passes,
// so churn and batch solves sample the same machine drift; chunks left
// after the last pass are replayed then. Garbage is collected before
// every timed solve and chunk, outside the timing.
func runUntraced(ctx context.Context, w workloadSpec, seed int64, seconds float64, out io.Writer, report func(error)) (result, error) {
	st, setupS, err := setUp(w, seed, report)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	tallies := map[string]*tally{}
	for _, f := range families {
		tallies[f] = &tally{}
	}
	first := make([]uint64, len(st.pairs))
	colors, mismatches := 0, 0
	nChunks, expected := w.churnChunks, w.passes*len(st.pairs)
	logs := make([]*churnLog, len(st.churns))
	parts := make([][]sim.Trace, len(st.churns))
	for e, c := range st.churns {
		logs[e] = newChurnLog(len(c.measured))
		parts[e] = chunks(c.measured, nChunks)
	}
	next, solved := 0, 0
	churnChunk := func() {
		for e, c := range st.churns {
			settle()
			res.Attempted += len(parts[e][next])
			res.Failed += replay(c.eng, parts[e][next], logs[e], report)
		}
		next++
	}

	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	pass := 0
	for pass == 0 || time.Since(start) < budget {
		for i, p := range st.pairs {
			for rep := 0; rep < max(1, w.reps[p.family]); rep++ {
				settle()
				t0 := time.Now()
				r, err := solve(ctx, p)
				wall := time.Since(t0)
				res.Attempted++
				if err != nil {
					res.Failed++
					report(fmt.Errorf("%s: %w", p, err))
					continue
				}
				tallies[p.family].add(i, p.inst.in.N(), wall)
				h := scheduleHash(r.Schedule)
				switch {
				case pass == 0 && rep == 0:
					first[i] = h
					colors += r.Stats.Colors
					fmt.Fprintf(out, "pair %-36s colors=%-4d wall=%.4fs engine=%s\n", p, r.Stats.Colors, wall.Seconds(), r.Stats.Engine)
				case h != first[i]:
					mismatches++
					report(fmt.Errorf("%s: pass %d solve %d differs from the first", p, pass, rep))
				}
			}
			// Chunk k is due once more than a k/nChunks share of the
			// expected solves is done.
			solved++
			for next < nChunks && next*expected < solved*nChunks {
				churnChunk()
			}
		}
		pass++
	}
	fmt.Fprintf(out, "timed phase: %d passes, %.2fs, %d of %d churn chunks interleaved\n", pass, time.Since(start).Seconds(), next, nChunks)
	for next < nChunks {
		churnChunk()
	}

	var (
		arrive, depart             []float64 // pooled over engines, for the diagnostics
		arr50, arr99, dep50, dep99 []float64 // per chunk
		rates                      []float64 // events per second, per chunk
		slotsMean                  float64
	)
	for e, c := range st.churns {
		res.Attempted++
		if err := checkChurn(c, c.eng); err != nil {
			res.Failed++
			report(err)
		}
		l := logs[e]
		times := make([]float64, len(c.measured))
		for k, ev := range c.measured {
			times[k] = ev.T
		}
		slotsMean += timeAverage(times, l.slots) / float64(len(st.churns))
		var aEnds, dEnds []int
		for _, m := range l.chunks {
			aEnds = append(aEnds, m.arrive)
			dEnds = append(dEnds, m.depart)
			rates = append(rates, float64(m.events)/m.wall.Seconds())
		}
		arr50 = append(arr50, chunkQuantiles(l.arrive, aEnds, 0.50)...)
		arr99 = append(arr99, chunkQuantiles(l.arrive, aEnds, 0.99)...)
		dep50 = append(dep50, chunkQuantiles(l.depart, dEnds, 0.50)...)
		dep99 = append(dep99, chunkQuantiles(l.depart, dEnds, 0.99)...)
		arrive = append(arrive, l.arrive...)
		depart = append(depart, l.depart...)
		fmt.Fprintf(out, "churn engine %d: %d events in %d chunks over %d requests, final %d slots, %d active\n", e, len(l.slots), len(l.chunks), c.in.N(), c.eng.NumSlots(), c.eng.Len())
	}
	arr, dep := summarize(arrive), summarize(depart)
	for _, x := range []struct {
		kind     string
		s        latencySummary
		p50, p99 []float64
	}{{"arrive", arr, arr50, arr99}, {"depart", dep, dep50, dep99}} {
		fmt.Fprintf(out, "churn %s: pooled p50=%.2fus p99=%.2fus p%g=%.2fus (%d samples); median of %d chunks p50=%.2fus p99=%.2fus (chunk p99 %.2f..%.2fus)\n",
			x.kind, x.s.P50, x.s.P99, x.s.TailPct, x.s.TailValue, x.s.Samples, len(x.p99), median(x.p50), median(x.p99), slices.Min(x.p99), slices.Max(x.p99))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				res.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	set("setup_s", setupS)
	for _, f := range families {
		t := tallies[f]
		if t.Solves == 0 {
			return result{}, fmt.Errorf("%s: family %s never solved", w.name, f)
		}
		fmt.Fprintf(out, "family %-12s solves=%-4d wall=%.3fs req/s=%.1f (pair medians) %.1f (totals)\n", f, t.Solves, t.Wall.Seconds(), t.reqPerSec(), float64(t.Requests)/t.Wall.Seconds())
		set(f+".req_per_s", t.reqPerSec())
	}
	set("colors", float64(colors))
	set("arrive_us.p50", median(arr50))
	set("arrive_us.p99", median(arr99))
	set("depart_us.p50", median(dep50))
	set("depart_us.p99", median(dep99))
	set("events_per_s", median(rates))
	set("slots.mean", slotsMean)
	set("peak_rss_mb", rss)
	set("ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0 && mismatches == 0
	return res, nil
}
