// Scale coverage: the evaluation sizes of the seed experiments (512) and
// the sparse affectance engine's production sizes (2000–50000).
package oblivious_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/instance"
	"repro/internal/power"
	"repro/internal/sinr"
)

// TestScale512 exercises the schedulers at the largest size the seed
// evaluation uses (512 requests / 1024 nodes) and validates every
// schedule. Skipped under -short.
func TestScale512(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in short mode")
	}
	m := oblivious.DefaultModel()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(512)), 512, 600, 1, 8)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	gr, err := oblivious.Lookup("greedy").Solve(ctx, m, in)
	if err != nil {
		t.Fatal(err)
	}
	g := gr.Schedule
	if err := oblivious.Validate(m, in, oblivious.Bidirectional, g); err != nil {
		t.Errorf("greedy@512 invalid: %v", err)
	}

	lr, err := oblivious.Lookup("lp").Solve(ctx, m, in, oblivious.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	lp := lr.Schedule
	if err := oblivious.Validate(m, in, oblivious.Bidirectional, lp); err != nil {
		t.Errorf("LP@512 invalid: %v", err)
	}
	if lp.NumColors() > 3*g.NumColors()+2 {
		t.Errorf("LP colors %d far above greedy %d at scale", lp.NumColors(), g.NumColors())
	}

	dr, err := oblivious.Lookup("greedy").Solve(ctx, m, in, oblivious.WithVariant(oblivious.Directed))
	if err != nil {
		t.Fatal(err)
	}
	d := dr.Schedule
	if err := oblivious.Validate(m, in, oblivious.Directed, d); err != nil {
		t.Errorf("directed greedy@512 invalid: %v", err)
	}
}

// scaleInstance grows the deployment area with √n so the request density
// — and with it the per-slot contention — stays constant across sizes,
// which is how a production deployment actually scales.
func scaleInstance(tb testing.TB, n int) *oblivious.Instance {
	tb.Helper()
	side := 300 * math.Sqrt(float64(n)/2000)
	in, err := instance.UniformRandom(rand.New(rand.NewSource(int64(n))), n, side, 1, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestSparseSolveScale runs the public solver API with the sparse engine
// forced at n=2000 for both variants and the online solver, validating
// every schedule against the exact constraints (WithValidation uses the
// uncached oracle), and pins the memory story: the sparse engine must
// store well under a tenth of the dense entry count. Skipped under
// -short.
func TestSparseSolveScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in short mode")
	}
	const n = 2000
	m := oblivious.DefaultModel()
	in := scaleInstance(t, n)

	for _, v := range []oblivious.Variant{oblivious.Bidirectional, oblivious.Directed} {
		res, err := oblivious.Lookup("greedy").Solve(context.Background(), m, in,
			oblivious.WithVariant(v),
			oblivious.WithAffectanceMode(oblivious.AffectSparse),
			oblivious.WithValidation(true))
		if err != nil {
			t.Fatalf("sparse greedy %s: %v", v, err)
		}
		dense, err := oblivious.Lookup("greedy").Solve(context.Background(), m, in,
			oblivious.WithVariant(v),
			oblivious.WithAffectanceMode(oblivious.AffectDense),
			oblivious.WithValidation(true))
		if err != nil {
			t.Fatalf("dense greedy %s: %v", v, err)
		}
		t.Logf("%s: sparse %d colors, dense %d colors", v, res.Stats.Colors, dense.Stats.Colors)
		// Conservative margins cost schedule length; the bound here is a
		// regression tripwire, not a theorem.
		if res.Stats.Colors > 4*dense.Stats.Colors+4 {
			t.Errorf("%s: sparse colors %d far above dense %d", v, res.Stats.Colors, dense.Stats.Colors)
		}
	}

	res, err := oblivious.Lookup("online").Solve(context.Background(), m, in,
		oblivious.WithAffectanceMode(oblivious.AffectSparse),
		oblivious.WithValidation(true))
	if err != nil {
		t.Fatalf("sparse online: %v", err)
	}
	if res.Stats.Online == nil || res.Stats.Online.PeakSlots < res.Stats.Colors {
		t.Errorf("online stats implausible: %+v", res.Stats.Online)
	}

	powers := power.Powers(m, in, power.Sqrt())
	eng, err := sparse.New(m, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	if denseEntries := n * n; eng.Entries()*10 > denseEntries {
		t.Errorf("sparse stores %d entries, not sparse against %d dense", eng.Entries(), denseEntries)
	}
}

// BenchmarkSparseScale is the acceptance benchmark of the sparse engine:
// an end-to-end greedy solve (engine build included) at n ∈ {2000,
// 10000, 50000}. Dense runs only at 2000 — at 10000 its matrices already
// need ≈3 GB and at 50000 ≈120 GB, which is the point of the sparse
// engine; n=50000 itself is opt-in via OBLIVIOUS_SCALE_FULL=1 (minutes
// of runtime). Every sub-benchmark reports its schedule length as
// colors, and every schedule is cross-checked against the exact oracle
// untimed.
func BenchmarkSparseScale(b *testing.B) {
	m := sinr.Default()
	for _, n := range []int{2000, 10000, 50000} {
		if n == 50000 && os.Getenv("OBLIVIOUS_SCALE_FULL") == "" {
			continue
		}
		in := scaleInstance(b, n)
		powers := power.Powers(m, in, power.Sqrt())
		modes := []string{"sparse"}
		if n <= 2000 {
			modes = append(modes, "dense")
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("n=%d/mode=%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				runtime.GC()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var sched *oblivious.Schedule
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mm := m
					if mode == "sparse" {
						c, err := sparse.New(m, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
						if err != nil {
							b.Fatal(err)
						}
						mm = m.WithCache(c)
					} else {
						mm = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
					}
					s, err := coloring.GreedyFirstFit(mm, in, sinr.Bidirectional, powers, nil)
					if err != nil {
						b.Fatal(err)
					}
					sched = s
				}
				b.StopTimer()
				// Oracle cross-check of the produced schedule, untimed: every
				// model margin is the direct exact computation.
				if err := m.CheckSchedule(in, sinr.Bidirectional, sched); err != nil {
					b.Fatalf("%s schedule fails the dense oracle: %v", mode, err)
				}
				b.ReportMetric(float64(sched.NumColors()), "colors")
			})
		}
	}

	// The pipeline and distributed cores ride the same tracker interfaces
	// since the dense gate fell: solve n=10000 end to end through the
	// public registry under the forced sparse engine, dense-oracle-checked
	// untimed. The GC stays on here (unlike the greedy loop above): these
	// cores are allocation-heavy and the CI scale-smoke job pins their
	// peak RSS under the same 1 GB ceiling as greedy. The pipeline gets
	// an additional n=50000 row behind the same OBLIVIOUS_SCALE_FULL=1
	// opt-in as the greedy n=50000 run (the arena + bounded-pool rework
	// is what makes that size finish at all).
	for _, solver := range []string{"pipeline", "distributed"} {
		sizes := []int{10000}
		if solver == "pipeline" && os.Getenv("OBLIVIOUS_SCALE_FULL") != "" {
			sizes = append(sizes, 50000)
		}
		for _, n := range sizes {
			in := scaleInstance(b, n)
			b.Run(fmt.Sprintf("n=%d/solver=%s/mode=sparse", n, solver), func(b *testing.B) {
				b.ReportAllocs()
				runtime.GC()
				var sched *oblivious.Schedule
				var stats oblivious.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := oblivious.Lookup(solver).Solve(context.Background(), m, in,
						oblivious.WithAffectanceMode(oblivious.AffectSparse))
					if err != nil {
						b.Fatal(err)
					}
					sched, stats = res.Schedule, res.Stats
				}
				b.StopTimer()
				if stats.Engine != "sparse" {
					b.Fatalf("%s ran on engine %q, want sparse", solver, stats.Engine)
				}
				if err := m.CheckSchedule(in, sinr.Bidirectional, sched); err != nil {
					b.Fatalf("%s schedule fails the dense oracle: %v", solver, err)
				}
				b.ReportMetric(float64(sched.NumColors()), "colors")
			})
		}
	}
}
