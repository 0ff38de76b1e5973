package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/distributed"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// perLayer lists the traced run's metrics with their units, in the order
// BENCHMARK.json declares them.
var perLayer = []struct{ name, unit string }{
	{"affect.build_s", "s"}, {"affect.builds", "count"}, {"affect.mb", "MB"},
	{"sparse.build_s", "s"}, {"sparse.builds", "count"}, {"sparse.entries", "count"}, {"sparse.mb", "MB"},
	{"sparse.canadd", "count"}, {"sparse.canadd_ns", "ns"}, {"sparse.accept_ratio", "ratio"},
	{"sparse.addmargin", "count"}, {"sparse.addmargin_ns", "ns"},
	{"sparse.margin", "count"}, {"sparse.margin_ns", "ns"},
	{"sparse.add", "count"}, {"sparse.add_ns", "ns"},
	{"sparse.remove", "count"}, {"sparse.remove_ns", "ns"},
	{"coloring.greedy_s", "s"}, {"coloring.lp_s", "s"},
	{"lp.solves", "count"}, {"lp.rounds", "count"}, {"lp.forced", "count"},
	{"pipeline.classes", "count"},
	{"pipeline.stage1_s", "s"}, {"pipeline.stage2_s", "s"}, {"pipeline.stage3_s", "s"},
	{"pipeline.stage4_s", "s"}, {"pipeline.stage5_s", "s"},
	{"pipeline.hst_builds", "count"}, {"pipeline.hst_build_s", "s"}, {"pipeline.keep_ratio", "ratio"},
	{"distributed.run_s", "s"}, {"distributed.slots", "count"}, {"distributed.attempts", "count"},
	{"distributed.success_ratio", "ratio"},
	{"online.arrive_us.p50", "us"}, {"online.arrive_us.p99", "us"},
	{"online.depart_us.p50", "us"}, {"online.depart_us.p99", "us"},
	{"online.rowops_per_event", "count"}, {"online.moves", "count"}, {"online.repacks", "count"},
	{"online.repairs", "count"}, {"online.new_s", "s"},
	{"sinr.validate_s", "s"},
	{"greedy.cpu_s", "s"}, {"greedy.alloc_mb", "MB"},
	{"lp.cpu_s", "s"}, {"lp.alloc_mb", "MB"},
	{"pipeline.cpu_s", "s"}, {"pipeline.alloc_mb", "MB"},
	{"distributed.cpu_s", "s"}, {"distributed.alloc_mb", "MB"},
	{"online.cpu_s", "s"}, {"online.alloc_mb", "MB"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"trace.overhead", "ratio"},
}

// span is one traced call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the run
// started; Parent is 0 for a solve's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Solve  int    `json:"solve"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a run in memory; they are written out when
// the run ends. Spans nest through a stack: the benchmark calls layers
// from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
	solve int
}

func (t *tracer) begin(name string) {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Solve: t.solve, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	k := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[k].End = time.Since(t.t0).Nanoseconds()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	defer t.end()
	f()
}

// selfSeconds sums, per span name, each span's duration minus the part
// its child spans cover: the time spent in that layer itself.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return self
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates what the traced calls report beyond their spans.
type layers struct {
	tr  tracer
	col *obs.Collector // the program's own instrumentation (pipeline, online)
	ops trackerOps

	denseMB, sparseMB  float64
	sparseEntries      int
	lp                 coloring.LPStats
	distSlots          int
	distAttempts       int
	distFailures       int
	keptPairs, finalPr int
	online             oblivious.OnlineStats
}

// build constructs the engine auto mode picks, inside an "affect.build"
// or "sparse.build" span; a sparse engine is wrapped to count its
// tracker operations.
func (l *layers) build(in *oblivious.Instance, powers []float64) (sinr.Cache, error) {
	var (
		c   sinr.Cache
		err error
	)
	name := "affect.build"
	if engineName(in) == "sparse" {
		name = "sparse.build"
	}
	l.tr.do(name, func() { c, err = buildEngine(in, powers) })
	if err != nil {
		return nil, err
	}
	if e, ok := c.(*sparse.Engine); ok {
		l.sparseEntries += e.Entries()
		c = countingEngine{Engine: e, ops: &l.ops}
	}
	return c, nil
}

// noteBytes records the resident size of an engine after its use (the
// dense engine's transposes are built lazily).
func (l *layers) noteBytes(c sinr.Cache) {
	switch e := c.(type) {
	case *affect.Cache:
		l.denseMB = max(l.denseMB, float64(e.Bytes())/1e6)
	case countingEngine:
		l.sparseMB = max(l.sparseMB, float64(e.Bytes())/1e6)
	}
}

// solveTraced reproduces one registry solve. For greedy, lp and
// distributed the benchmark calls each layer's public function itself,
// in the order the solver composes them — powers, engine build by
// AffectanceMode.Resolve, the solver core, and CheckSchedule on a
// cache-free model — so every layer gets its own span. The pipeline and
// the online family run through the registry with the program's own
// observer attached, since their layers interleave inside one call.
func (l *layers) solveTraced(ctx context.Context, p pair) (*oblivious.Schedule, error) {
	l.tr.solve++
	l.tr.begin("solve/" + p.family)
	defer l.tr.end()
	in := p.inst.in
	var (
		s   *problem.Schedule
		err error
	)
	switch p.family {
	case "greedy", "lp", "distributed":
		var powers []float64
		l.tr.do("power.powers", func() { powers = power.Powers(model, in, power.Sqrt()) })
		cache, berr := l.build(in, powers)
		if berr != nil {
			return nil, berr
		}
		m := model.WithCache(cache)
		rng := rand.New(rand.NewSource(p.inst.seed))
		switch p.family {
		case "greedy":
			l.tr.do("coloring.greedy", func() { s, err = coloring.GreedyFirstFit(m, in, sinr.Bidirectional, powers, nil) })
		case "lp":
			var st *coloring.LPStats
			l.tr.do("coloring.lp", func() { s, st, err = coloring.SqrtLPColoringCtx(ctx, m, in, rng, coloring.LPOptions{}) })
			if err == nil {
				l.lp.LPSolves += st.LPSolves
				l.lp.Rounds += st.Rounds
				l.lp.Forced += st.Forced
			}
		case "distributed":
			proto := distributed.Default()
			proto.Assignment = power.Sqrt()
			var r *distributed.Result
			l.tr.do("distributed.run", func() { r, err = proto.RunContext(ctx, m, in, rng) })
			if err == nil {
				s = r.Schedule
				l.distSlots += r.Slots
				l.distAttempts += r.Attempts
				l.distFailures += r.Failures
			}
		}
		l.noteBytes(cache)
		if err != nil {
			return nil, err
		}
		l.tr.do("sinr.validate", func() { err = model.CheckSchedule(in, sinr.Bidirectional, s) })
		if err != nil {
			return nil, fmt.Errorf("produced schedule failed validation: %w", err)
		}
		return s, nil
	default:
		var r *oblivious.Result
		l.tr.do("registry.solve", func() { r, err = solve(ctx, p, oblivious.WithObserver(l.col)) })
		if err != nil {
			return nil, err
		}
		if ps := r.Stats.Pipeline; ps != nil {
			l.keptPairs += ps.PairsKept
			l.finalPr += ps.FinalPairs
		}
		if ons := r.Stats.Online; ons != nil {
			addOnline(&l.online, *ons)
		}
		return r.Schedule, nil
	}
}

func addOnline(dst *oblivious.OnlineStats, s oblivious.OnlineStats) {
	dst.Arrivals += s.Arrivals
	dst.Departures += s.Departures
	dst.Moves += s.Moves
	dst.Repacks += s.Repacks
	dst.Repairs += s.Repairs
	dst.RowOps += s.RowOps
}

// runTraced is the per-layer run: one pass over the workload's pairs and
// one replay of its churn trace, each done twice in a row — untraced, as
// the end-to-end run does it, then traced — so the counts repeat exactly
// for a seed, the traced schedule can be checked bitwise against the
// untraced one, and the wall-time ratio of the two is the tracing
// overhead. The Go runtime figures are read around the untraced calls.
func runTraced(ctx context.Context, w workloadSpec, seed int64, spanDir string, out io.Writer, report func(error)) (result, error) {
	st, _, err := setUp(w, seed, report)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	l := &layers{tr: tracer{t0: time.Now()}, col: obs.NewCollector()}
	cpu := map[string]float64{}
	alloc := map[string]float64{}
	var gcs, pauseNs uint64
	var untracedWall, tracedWall time.Duration
	mismatches := 0
	fail := func(err error) {
		res.Failed++
		report(err)
	}
	for _, p := range st.pairs {
		settle()
		before := readRuntime()
		t0 := time.Now()
		ref, err := solve(ctx, p)
		wall := time.Since(t0)
		after := readRuntime()
		cpu[p.family] += after.cpu - before.cpu
		alloc[p.family] += float64(after.alloc-before.alloc) / 1e6
		gcs += uint64(after.gcs - before.gcs)
		pauseNs += after.pauseNs - before.pauseNs
		untracedWall += wall
		res.Attempted++
		if err != nil {
			fail(fmt.Errorf("%s: %w", p, err))
		}

		settle()
		t1 := time.Now()
		got, terr := l.solveTraced(ctx, p)
		twall := time.Since(t1)
		tracedWall += twall
		res.Attempted++
		if terr != nil {
			fail(fmt.Errorf("%s traced: %w", p, terr))
		}
		if err == nil && terr == nil && scheduleHash(got) != scheduleHash(ref.Schedule) {
			mismatches++
			report(fmt.Errorf("%s: traced schedule differs from the untraced one", p))
		}
		fmt.Fprintf(out, "pair %-32s untraced=%.4fs traced=%.4fs\n", p, wall.Seconds(), twall.Seconds())
	}

	// Churn: each warmed engine from set-up replays its measured events
	// untraced; a second engine over the same instance — built inside
	// spans, over a counting sparse engine where auto mode picks sparse,
	// observed by the program's own collector — replays the warm-up and
	// measured events traced. Both must end in the same slot series and
	// the same schedule.
	for e, c := range st.churns {
		settle()
		before := readRuntime()
		ref := newChurnLog(len(c.measured))
		res.Failed += replay(c.eng, c.measured, ref, report)
		after := readRuntime()
		gcs += uint64(after.gcs - before.gcs)
		pauseNs += after.pauseNs - before.pauseNs
		untracedWall += ref.wall
		res.Attempted += len(c.measured) + 1
		if err := checkChurn(c, c.eng); err != nil {
			fail(err)
		}
		refSnap := scheduleHash(c.eng.Snapshot())
		c.eng = nil

		settle()
		l.tr.solve++
		l.tr.begin("churn")
		cache, err := l.build(c.in, c.powers)
		if err != nil {
			return result{}, fmt.Errorf("churn engine: %w", err)
		}
		l.tr.do("online.new", func() { c.eng, err = churnEngine(c, cache, online.WithObserver(l.col)) })
		if err != nil {
			return result{}, fmt.Errorf("churn engine: %w", err)
		}
		got := newChurnLog(len(c.measured))
		l.tr.do("churn.warm", func() { res.Failed += replay(c.eng, c.warm, nil, report) })
		l.tr.do("churn.replay", func() { res.Failed += replay(c.eng, c.measured, got, report) })
		l.tr.end()
		tracedWall += got.wall
		res.Attempted += len(c.warm) + len(c.measured) + 1
		if err := checkChurn(c, c.eng); err != nil {
			fail(err)
		}
		l.noteBytes(cache)
		if !slices.Equal(got.slots, ref.slots) || scheduleHash(c.eng.Snapshot()) != refSnap {
			mismatches++
			report(fmt.Errorf("churn engine %d: traced replay differs from the untraced one", e))
		}
		addOnline(&l.online, c.eng.Stats())
		fmt.Fprintf(out, "churn engine %d: %d events untraced=%.4fs traced=%.4fs\n", e, len(c.measured), ref.wall.Seconds(), got.wall.Seconds())
	}

	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := l.tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	self := l.tr.selfSeconds()
	printShares(out, self, l.col)
	fmt.Fprintf(out, "spans: %d written to %s\n", len(l.tr.spans), path)

	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				res.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	hist := func(name string) *obs.Histogram { return l.col.Histogram(name) }
	histS := func(name string) float64 { return float64(hist(name).Sum()) / 1e9 }
	gauge := func(name string) float64 { return l.col.Gauge(name).Value() / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	set("affect.build_s", self["affect.build"]+histS("affect/build_ns"))
	set("affect.builds", float64(l.tr.count("affect.build"))+float64(hist("affect/build_ns").Count()))
	set("affect.mb", max(l.denseMB, gauge("affect/bytes")))
	set("sparse.build_s", self["sparse.build"]+histS("sparse/build_ns"))
	set("sparse.builds", float64(l.tr.count("sparse.build"))+float64(hist("sparse/build_ns").Count()))
	set("sparse.entries", float64(l.sparseEntries))
	set("sparse.mb", max(l.sparseMB, gauge("sparse/bytes")))
	o := l.ops
	set("sparse.canadd", float64(o.CanAdd.Calls))
	set("sparse.canadd_ns", o.CanAdd.meanNs())
	set("sparse.accept_ratio", ratio(float64(o.Accepted), float64(o.CanAdd.Calls)))
	set("sparse.addmargin", float64(o.AddMargin.Calls))
	set("sparse.addmargin_ns", o.AddMargin.meanNs())
	set("sparse.margin", float64(o.Margin.Calls))
	set("sparse.margin_ns", o.Margin.meanNs())
	set("sparse.add", float64(o.Add.Calls))
	set("sparse.add_ns", o.Add.meanNs())
	set("sparse.remove", float64(o.Remove.Calls))
	set("sparse.remove_ns", o.Remove.meanNs())
	set("coloring.greedy_s", self["coloring.greedy"])
	set("coloring.lp_s", self["coloring.lp"])
	set("lp.solves", float64(l.lp.LPSolves))
	set("lp.rounds", float64(l.lp.Rounds))
	set("lp.forced", float64(l.lp.Forced))
	set("pipeline.classes", float64(hist("span/pipeline/stage1").Count()))
	for k := 1; k <= 5; k++ {
		set(fmt.Sprintf("pipeline.stage%d_s", k), histS(fmt.Sprintf("span/pipeline/stage%d", k)))
	}
	set("pipeline.hst_builds", float64(hist("span/pipeline/hst-build").Count()))
	set("pipeline.hst_build_s", histS("span/pipeline/hst-build"))
	set("pipeline.keep_ratio", ratio(float64(l.finalPr), float64(l.keptPairs)))
	set("distributed.run_s", self["distributed.run"])
	set("distributed.slots", float64(l.distSlots))
	set("distributed.attempts", float64(l.distAttempts))
	set("distributed.success_ratio", ratio(float64(l.distAttempts-l.distFailures), float64(l.distAttempts)))
	us := func(name string, q float64) float64 { return float64(hist(name).Quantile(q)) / 1e3 }
	set("online.arrive_us.p50", us("engine/arrive_ns", 0.50))
	set("online.arrive_us.p99", us("engine/arrive_ns", 0.99))
	set("online.depart_us.p50", us("engine/depart_ns", 0.50))
	set("online.depart_us.p99", us("engine/depart_ns", 0.99))
	set("online.rowops_per_event", ratio(float64(l.online.RowOps), float64(l.online.Arrivals+l.online.Departures)))
	set("online.moves", float64(l.online.Moves))
	set("online.repacks", float64(l.online.Repacks))
	set("online.repairs", float64(l.online.Repairs))
	set("online.new_s", self["online.new"])
	set("sinr.validate_s", self["sinr.validate"])
	for _, f := range families {
		set(f+".cpu_s", cpu[f])
		set(f+".alloc_mb", alloc[f])
	}
	set("gc.cycles", float64(gcs))
	set("gc.pause_ms", float64(pauseNs)/1e6)
	set("trace.overhead", tracedWall.Seconds()/untracedWall.Seconds()-1)
	res.Correct = res.Failed == 0 && mismatches == 0
	return res, nil
}

// printShares prints each span name's self time as a share of all traced
// time, largest first, and then the program's own stage and build
// histograms, which split the registry.solve spans of the pipeline and
// online families, as shares of the same total.
func printShares(out io.Writer, self map[string]float64, col *obs.Collector) {
	total := 0.0
	names := make([]string, 0, len(self))
	for k, v := range self {
		total += v
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	for _, k := range names {
		fmt.Fprintf(out, "layer %-24s self=%.4fs share=%.1f%%\n", k, self[k], 100*self[k]/total)
	}
	for _, h := range []string{"span/pipeline/stage1", "span/pipeline/stage2", "span/pipeline/hst-build", "span/pipeline/stage3",
		"span/pipeline/stage4", "span/pipeline/stage5", "affect/build_ns", "sparse/build_ns"} {
		v := float64(col.Histogram(h).Sum()) / 1e9
		fmt.Fprintf(out, "program %-22s sum=%.4fs share=%.1f%%\n", h, v, 100*v/total)
	}
}
