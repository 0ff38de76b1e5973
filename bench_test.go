// Package oblivious_test: the benchmarks live in the external test package
// because internal/experiment now consumes the public solver API, and an
// in-package test importing it would form an import cycle.
//
// One benchmark per experiment table (E1–E15, see DESIGN.md and
// EXPERIMENTS.md): each bench regenerates its table in quick mode, so
// `go test -bench=.` exercises the full evaluation pipeline. Micro
// benchmarks for the core algorithmic building blocks follow.
package oblivious_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/coloring"
	"repro/internal/experiment"
	"repro/internal/hst"
	"repro/internal/instance"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/online/sim"
	"repro/internal/power"
	"repro/internal/powerctl"
	"repro/internal/sinr"
	"repro/internal/treestar"
)

func benchExperiment(b *testing.B, run experiment.Runner) {
	b.Helper()
	cfg := experiment.Config{Seed: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1DirectedLowerBound(b *testing.B) {
	benchExperiment(b, experiment.E1DirectedLowerBound)
}

func BenchmarkE2NestedSingleSlot(b *testing.B) {
	benchExperiment(b, experiment.E2NestedSingleSlot)
}

func BenchmarkE3SqrtPolylog(b *testing.B) {
	benchExperiment(b, experiment.E3SqrtPolylog)
}

func BenchmarkE4LPColoring(b *testing.B) {
	benchExperiment(b, experiment.E4LPColoring)
}

func BenchmarkE5GainScaling(b *testing.B) {
	benchExperiment(b, experiment.E5GainScaling)
}

func BenchmarkE6TreeEmbedding(b *testing.B) {
	benchExperiment(b, experiment.E6TreeEmbedding)
}

func BenchmarkE7StarSelection(b *testing.B) {
	benchExperiment(b, experiment.E7StarSelection)
}

func BenchmarkE8ExponentSweep(b *testing.B) {
	benchExperiment(b, experiment.E8ExponentSweep)
}

func BenchmarkE9DirectedVsBidirectional(b *testing.B) {
	benchExperiment(b, experiment.E9DirectedVsBidirectional)
}

func BenchmarkE10Energy(b *testing.B) {
	benchExperiment(b, experiment.E10Energy)
}

func BenchmarkE11Distributed(b *testing.B) {
	benchExperiment(b, experiment.E11Distributed)
}

func BenchmarkE12AspectRatio(b *testing.B) {
	benchExperiment(b, experiment.E12AspectRatio)
}

func BenchmarkE13Connectivity(b *testing.B) {
	benchExperiment(b, experiment.E13Connectivity)
}

func BenchmarkE14Ablations(b *testing.B) {
	benchExperiment(b, experiment.E14Ablations)
}

func BenchmarkE15MultihopLatency(b *testing.B) {
	benchExperiment(b, experiment.E15MultihopLatency)
}

func BenchmarkE16OnlineArrivals(b *testing.B) {
	benchExperiment(b, experiment.E16OnlineArrivals)
}

func BenchmarkE17GridBaseline(b *testing.B) {
	benchExperiment(b, experiment.E17GridBaseline)
}

func BenchmarkE18ModelSensitivity(b *testing.B) {
	benchExperiment(b, experiment.E18ModelSensitivity)
}

func BenchmarkE19SymmetricAsymmetric(b *testing.B) {
	benchExperiment(b, experiment.E19SymmetricAsymmetric)
}

// --- micro benchmarks of the core building blocks ---

func benchInstance(b *testing.B, n int) *oblivious.Instance {
	b.Helper()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(1)), n, 300, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkGreedyColoring128(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 128)
	powers := power.Powers(m, in, power.Sqrt())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coloring.GreedyFirstFit(m, in, sinr.Bidirectional, powers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPColoring64(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coloring.SqrtLPColoring(m, in, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline64(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (treestar.Pipeline{}).Run(m, in, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFRTBuild128(b *testing.B) {
	in := benchInstance(b, 64) // 128 nodes
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hst.Build(in.Space, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeasibilityOracle64(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 64)
	set := make([]int, in.N())
	for i := range set {
		set[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerctl.Feasible(m, in, sinr.Bidirectional, set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplex50x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nVars, nRows := 100, 50
	p := lp.Problem{C: make([]float64, nVars), A: make([][]float64, nRows), B: make([]float64, nRows)}
	for j := range p.C {
		p.C[j] = 1
	}
	for i := range p.A {
		p.A[i] = make([]float64, nVars)
		for j := range p.A[i] {
			if rng.Float64() < 0.3 {
				p.A[i][j] = rng.Float64()
			}
		}
		p.B[i] = 1 + rng.Float64()*3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSINRCheck128(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 128)
	powers := power.Powers(m, in, power.Sqrt())
	set := make([]int, in.N())
	for i := range set {
		set[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetFeasible(in, sinr.Bidirectional, powers, set)
	}
}

// --- affectance engine benchmarks (cached vs uncached) ---

// affectSizes are the instance sizes of the acceptance criteria.
var affectSizes = []int{100, 500, 2000}

// BenchmarkSetFeasible measures a full-set feasibility probe — the SINR
// query every solver leans on — by the model (cached=false, the O(|set|²)
// oracle) and by the dense engine's tracker over the precomputed
// affectance matrices (cached=true), whose set is filled untimed.
func BenchmarkSetFeasible(b *testing.B) {
	for _, n := range affectSizes {
		m := sinr.Default()
		in := benchInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		set := make([]int, in.N())
		for i := range set {
			set[i] = i
		}
		for _, cached := range []bool{false, true} {
			setFeasible := func() bool { return m.SetFeasible(in, sinr.Bidirectional, powers, set) }
			if cached {
				tr := affect.Rows{Cache: affect.New(m, sinr.Bidirectional, in, powers)}.NewSetTracker(m, sinr.Bidirectional)
				for _, i := range set {
					tr.Add(i)
				}
				setFeasible = tr.SetFeasible
			}
			b.Run(fmt.Sprintf("n=%d/cached=%t", n, cached), func(b *testing.B) {
				b.ReportAllocs()
				// On small machines the collector's pacing makes O(100ms)
				// timed regions bimodal; collect first and hold GC off for
				// the loop so cached-vs-uncached ratios are reproducible.
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					setFeasible()
				}
			})
		}
	}
}

// BenchmarkGreedyColoring measures the full greedy first-fit coloring.
// The cache is built outside the timed loop: the engine's contract is
// amortization across the many feasibility probes of a solve.
func BenchmarkGreedyColoring(b *testing.B) {
	for _, n := range affectSizes {
		m := sinr.Default()
		in := benchInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		for _, cached := range []bool{false, true} {
			mm := m
			if cached {
				mm = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
			}
			b.Run(fmt.Sprintf("n=%d/cached=%t", n, cached), func(b *testing.B) {
				b.ReportAllocs()
				// On small machines the collector's pacing makes O(100ms)
				// timed regions bimodal; collect first and hold GC off for
				// the loop so cached-vs-uncached ratios are reproducible.
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := coloring.GreedyFirstFit(mm, in, sinr.Bidirectional, powers, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAffectanceBuild measures the parallel matrix fill itself — the
// one-off cost a Solve pays before the cached queries start.
func BenchmarkAffectanceBuild(b *testing.B) {
	for _, n := range affectSizes {
		m := sinr.Default()
		in := benchInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				affect.New(m, sinr.Bidirectional, in, powers)
			}
		})
	}
}

// BenchmarkOnlineChurn is the acceptance benchmark of the online engine:
// one Poisson churn trace per size, replayed (a) incrementally through
// the engine and (b) by re-running the batch greedy solver on the active
// set after every event — the only alternative a batch-only system has.
// Each sub-benchmark reports its per-event cost as ns/event; the
// incremental path must be at least an order of magnitude cheaper at
// n=2000. The batch mode
// replays a short prefix of the same trace (its per-event cost is flat in
// the event count but grows with n², and a full-length replay would blow
// the CI smoke budget).
func BenchmarkOnlineChurn(b *testing.B) {
	for _, n := range affectSizes {
		m := sinr.Default()
		in := benchInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		mc := m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
		// Steady state ≈ n/2 active requests, 4n events.
		trace := sim.Poisson(rand.New(rand.NewSource(1)), n, float64(n)/4, 2, 4*n)
		b.Run(fmt.Sprintf("n=%d/mode=incremental", n), func(b *testing.B) {
			b.ReportAllocs()
			// On small machines the collector's pacing makes O(100ms)
			// timed regions bimodal; collect first and hold GC off for
			// the loop so incremental-vs-batch ratios are reproducible.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := online.New(mc, in, sinr.Bidirectional, powers,
					online.WithAdmission(online.BestFit), online.WithRepair(online.ThresholdRepair))
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range trace {
					if ev.Arrive {
						_, err = eng.Arrive(ev.Req)
					} else {
						err = eng.Depart(ev.Req)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportPerEvent(b, len(trace))
		})
		b.Run(fmt.Sprintf("n=%d/mode=batch", n), func(b *testing.B) {
			// Fast-forward the active set to the trace's steady state
			// untimed (the first half is warm-up from an empty system),
			// then time the batch re-solves over the following events.
			warm, measured := trace[:len(trace)/2], trace[len(trace)/2:]
			if len(measured) > 48 {
				measured = measured[:48]
			}
			activeList := make([]int, 0, n)
			pos := make([]int, n)
			for k := range pos {
				pos[k] = -1
			}
			apply := func(ev sim.Event) {
				if ev.Arrive {
					pos[ev.Req] = len(activeList)
					activeList = append(activeList, ev.Req)
				} else {
					k := pos[ev.Req]
					last := len(activeList) - 1
					activeList[k] = activeList[last]
					pos[activeList[k]] = k
					activeList = activeList[:last]
					pos[ev.Req] = -1
				}
			}
			for _, ev := range warm {
				apply(ev)
			}
			base := append([]int(nil), activeList...)
			b.ReportAllocs()
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				activeList = append(activeList[:0], base...)
				for k := range pos {
					pos[k] = -1
				}
				for k, r := range activeList {
					pos[r] = k
				}
				b.StartTimer()
				for _, ev := range measured {
					apply(ev)
					if len(activeList) == 0 {
						continue
					}
					if _, err := coloring.GreedyFirstFit(mc, in, sinr.Bidirectional, powers, activeList); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportPerEvent(b, len(measured))
		})
	}
}

// reportPerEvent reports the just-finished churn loop's cost per event,
// where one b.N iteration replays events events.
func reportPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkObsOverhead measures the cost of the observability layer on
// the greedy solver at n=2000: obs=off is the nil-collector disabled
// path (every instrument site pays its one branch and nothing else),
// obs=on attaches a live collector. The acceptance criterion is that
// the off variant stays within 2% of a build without instrumentation —
// in practice, within noise of the on variant too, since greedy's cost
// is dominated by the coloring itself.
func BenchmarkObsOverhead(b *testing.B) {
	m := sinr.Default()
	in := benchInstance(b, 2000)
	solver := oblivious.Lookup("greedy")
	for _, observed := range []bool{false, true} {
		var col *obs.Collector
		if observed {
			col = obs.NewCollector()
		}
		b.Run(fmt.Sprintf("n=2000/obs=%t", observed), func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(context.Background(), m, in,
					oblivious.WithSeed(1), oblivious.WithObserver(col)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThinToGain measures the Proposition 3 thinning, whose cached
// path replaces the O(n²) re-scan per removal with the incremental
// tracker.
func BenchmarkThinToGain(b *testing.B) {
	for _, n := range []int{100, 500} {
		m := sinr.Default()
		in := benchInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		set := make([]int, in.N())
		for i := range set {
			set[i] = i
		}
		for _, cached := range []bool{false, true} {
			mm := m
			if cached {
				mm = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
			}
			b.Run(fmt.Sprintf("n=%d/cached=%t", n, cached), func(b *testing.B) {
				b.ReportAllocs()
				// On small machines the collector's pacing makes O(100ms)
				// timed regions bimodal; collect first and hold GC off for
				// the loop so cached-vs-uncached ratios are reproducible.
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := coloring.ThinToGain(mm, in, sinr.Bidirectional, powers, set, 2*m.Beta); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// pipelineStageNames are the spans runCtx emits, in pipeline order.
var pipelineStageNames = []string{"stage1", "stage2", "stage3", "stage4", "stage5", "hst-build"}

// BenchmarkPipelineStages profiles the pipeline solver end to end at n ∈
// {2000, 10000} with an obs collector attached, then reports the mean of
// each "span/pipeline/*" histogram as <stage>-ns/span (one span per
// extracted color class; hst-build one per sampled tree) next to the
// end-to-end ns/op and the schedule length. It shows where a coloring
// spends its time (the stage-2 tree scans and stage-5 thinning at scale)
// and pins the arena/worker-pool savings against regressions.
func BenchmarkPipelineStages(b *testing.B) {
	m := oblivious.DefaultModel()
	for _, n := range []int{2000, 10000} {
		in := scaleInstance(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			col := obs.NewCollector()
			var sched *oblivious.Schedule
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := oblivious.Lookup("pipeline").Solve(context.Background(), m, in,
					oblivious.WithSeed(1), oblivious.WithObserver(col))
				if err != nil {
					b.Fatal(err)
				}
				sched = res.Schedule
			}
			b.StopTimer()
			snap := col.Snapshot()
			for _, stage := range pipelineStageNames {
				h, ok := snap.Histograms["span/pipeline/"+stage]
				if !ok || h.Count == 0 {
					continue
				}
				b.ReportMetric(float64(h.Sum)/float64(h.Count), stage+"-ns/span")
			}
			b.ReportMetric(float64(sched.NumColors()), "colors")
		})
	}
}
