package oblivious

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/distributed"
	"repro/internal/instance"
	"repro/internal/treestar"
)

// dummySchedule backs the stub solvers used to probe the wrapper and the
// batch runner without running a real algorithm.
func dummySchedule(n int) *Schedule {
	s := &Schedule{Colors: make([]int, n), Powers: make([]float64, n)}
	for i := range s.Colors {
		s.Colors[i] = i
		s.Powers[i] = 1
	}
	return s
}

func TestSolversRegistry(t *testing.T) {
	names := Solvers()
	for _, want := range []string{"distributed", "greedy", "lp", "pipeline"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Solvers() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Solvers() not sorted: %v", names)
		}
	}
	for _, n := range names {
		if got := Lookup(n).Name(); got != n {
			t.Errorf("Lookup(%q).Name() = %q", n, got)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	s := Lookup("annealing")
	if s == nil {
		t.Fatal("Lookup must never return nil")
	}
	_, err := s.Solve(context.Background(), DefaultModel(), fourLinks(t))
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), "greedy") {
		t.Errorf("unknown-solver error should list registered names, got %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty name": func() { Register("", Lookup("greedy")) },       //oblint:ignore exercising the panic path, never registered
		"nil solver": func() { Register("x", nil) },                   //oblint:ignore exercising the panic path, never registered
		"duplicate":  func() { Register("greedy", Lookup("greedy")) }, //oblint:ignore exercising the panic path, never registered
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestOptionDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.Variant != Bidirectional {
		t.Errorf("default variant = %v, want Bidirectional", o.Variant)
	}
	if o.Assignment == nil || o.Assignment.Name() != Sqrt().Name() {
		t.Errorf("default assignment = %v, want sqrt", o.Assignment)
	}
	if o.Seed != 1 {
		t.Errorf("default seed = %d, want 1", o.Seed)
	}
	if o.Validate {
		t.Error("validation should default to off")
	}
	if o.Parallelism != 0 {
		t.Errorf("default parallelism = %d, want 0 (GOMAXPROCS)", o.Parallelism)
	}
	if o.Mode != AffectAuto {
		t.Errorf("default engine mode = %v, want auto", o.Mode)
	}

	// The options reach the algorithm core exactly as composed.
	var seen Options
	probe := NewSolver("probe", func(_ context.Context, _ Model, _ *Instance, o Options) (*Result, error) {
		seen = o
		return &Result{Schedule: dummySchedule(4)}, nil
	})
	_, err := probe.Solve(context.Background(), DefaultModel(), fourLinks(t),
		WithVariant(Directed), WithAssignment(Linear()), WithSeed(42), WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if seen.Variant != Directed || seen.Assignment.Name() != "linear" || seen.Seed != 42 || seen.Parallelism != 3 {
		t.Errorf("options did not thread through: %+v", seen)
	}
}

func TestNewSolverRejectsNilSchedule(t *testing.T) {
	for name, s := range map[string]Solver{
		"nil result":   NewSolver("bad", func(context.Context, Model, *Instance, Options) (*Result, error) { return nil, nil }),
		"nil schedule": NewSolver("bad", func(context.Context, Model, *Instance, Options) (*Result, error) { return &Result{}, nil }),
	} {
		if _, err := s.Solve(context.Background(), DefaultModel(), fourLinks(t)); err == nil {
			t.Errorf("%s: expected an error, not a panic or success", name)
		}
	}
}

func TestEverySolverValidates(t *testing.T) {
	m := DefaultModel()
	in := fourLinks(t)
	for _, name := range Solvers() {
		res, err := Lookup(name).Solve(context.Background(), m, in, WithSeed(3), WithValidation(true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Solver != name {
			t.Errorf("%s: Result.Solver = %q", name, res.Solver)
		}
		if res.Schedule == nil || res.Schedule.NumColors() < 1 {
			t.Fatalf("%s: empty schedule", name)
		}
		if err := Validate(m, in, Bidirectional, res.Schedule); err != nil {
			t.Errorf("%s: schedule infeasible: %v", name, err)
		}
		if res.Stats.Colors != res.Schedule.NumColors() {
			t.Errorf("%s: Stats.Colors = %d, schedule has %d", name, res.Stats.Colors, res.Schedule.NumColors())
		}
		if res.Stats.Energy <= 0 {
			t.Errorf("%s: Stats.Energy = %g", name, res.Stats.Energy)
		}
	}
}

func TestSolverStatsUnified(t *testing.T) {
	m := DefaultModel()
	in := fourLinks(t)
	lp, err := Lookup("lp").Solve(context.Background(), m, in, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if lp.Stats.LP == nil || lp.Stats.LP.LPSolves == 0 {
		t.Errorf("lp stats missing: %+v", lp.Stats)
	}
	pipe, err := Lookup("pipeline").Solve(context.Background(), m, in, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Stats.Pipeline == nil || pipe.Stats.Pipeline.ActiveNodes == 0 {
		t.Errorf("pipeline stats missing: %+v", pipe.Stats)
	}
	dist, err := Lookup("distributed").Solve(context.Background(), m, in, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if dist.Stats.Slots == 0 || dist.Stats.Attempts == 0 {
		t.Errorf("distributed stats missing: %+v", dist.Stats)
	}
}

func TestSolverVariantGuards(t *testing.T) {
	m := DefaultModel()
	in := fourLinks(t)
	for _, name := range []string{"lp", "pipeline", "distributed"} {
		if _, err := Lookup(name).Solve(context.Background(), m, in, WithVariant(Directed)); err == nil {
			t.Errorf("%s should reject the directed variant", name)
		}
	}
	for _, name := range []string{"lp", "pipeline"} {
		if _, err := Lookup(name).Solve(context.Background(), m, in, WithAssignment(Linear())); err == nil {
			t.Errorf("%s should reject non-sqrt assignments", name)
		}
	}
	// Greedy supports both variants and arbitrary assignments.
	if _, err := Lookup("greedy").Solve(context.Background(), m, in,
		WithVariant(Directed), WithAssignment(Uniform(1)), WithValidation(true)); err != nil {
		t.Errorf("greedy directed uniform: %v", err)
	}
}

func TestSolveAll(t *testing.T) {
	m := DefaultModel()
	instances := []*Instance{fourLinks(t), fourLinks(t), fourLinks(t), fourLinks(t), fourLinks(t)}
	results, err := SolveAll(context.Background(), m, instances, Lookup("greedy"), WithParallelism(2), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(instances) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil || r.Schedule == nil {
			t.Fatalf("result %d missing", i)
		}
	}
}

// TestSolveAllConcurrent proves the batch runner actually overlaps work: a
// barrier solver blocks every call until `workers` goroutines are inside
// it at the same time, so the batch can only finish if SolveAll runs that
// many instances concurrently.
func TestSolveAllConcurrent(t *testing.T) {
	const workers = 4
	var barrier sync.WaitGroup
	barrier.Add(workers)
	block := NewSolver("barrier", func(ctx context.Context, _ Model, _ *Instance, _ Options) (*Result, error) {
		barrier.Done()
		done := make(chan struct{})
		go func() { barrier.Wait(); close(done) }()
		select {
		case <-done:
			return &Result{Schedule: dummySchedule(1)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("barrier never filled: instances did not run concurrently")
		}
	})
	instances := make([]*Instance, workers)
	for i := range instances {
		instances[i] = fourLinks(t)
	}
	results, err := SolveAll(context.Background(), DefaultModel(), instances, block, WithParallelism(workers))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != workers {
		t.Fatalf("got %d results", len(results))
	}
}

func TestSolveAllCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveAll(ctx, DefaultModel(), []*Instance{fourLinks(t)}, Lookup("greedy"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveAllCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	slow := NewSolver("slow", func(ctx context.Context, _ Model, _ *Instance, _ Options) (*Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	instances := make([]*Instance, 16)
	for i := range instances {
		instances[i] = fourLinks(t)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := SolveAll(ctx, DefaultModel(), instances, slow, WithParallelism(2))
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SolveAll did not return after cancellation")
	}
}

func TestSolveAllErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var calls sync.Map
	failing := NewSolver("failing", func(_ context.Context, _ Model, _ *Instance, o Options) (*Result, error) {
		calls.Store(o.Seed, true)
		if o.Seed == 2 { // instance index 1 under the default base seed 1
			return nil, boom
		}
		return &Result{Schedule: dummySchedule(1)}, nil
	})
	instances := make([]*Instance, 8)
	for i := range instances {
		instances[i] = fourLinks(t)
	}
	_, err := SolveAll(context.Background(), DefaultModel(), instances, failing, WithParallelism(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "instance 1") {
		t.Errorf("error should name the failing instance: %v", err)
	}
	// The single worker processed instances in order, so nothing after the
	// failing one (seed 2 = index 1) may have been attempted.
	calls.Range(func(k, _ any) bool {
		if seed := k.(int64); seed > 2 {
			t.Errorf("instance with seed %d ran after the failure", seed)
		}
		return true
	})
}

// The sqrt gate is behavioral: a true square root assignment under any
// name passes, a "sqrt"-named imposter does not.
func TestSqrtGuardIsBehavioral(t *testing.T) {
	m := DefaultModel()
	in := fourLinks(t)
	renamed := namedAssignment{name: "my-sqrt", f: func(loss float64) float64 { return math.Sqrt(loss) }}
	if _, err := Lookup("lp").Solve(context.Background(), m, in, WithAssignment(renamed)); err != nil {
		t.Errorf("behaviorally-sqrt assignment rejected: %v", err)
	}
	imposter := namedAssignment{name: "sqrt", f: func(loss float64) float64 { return loss }}
	if _, err := Lookup("lp").Solve(context.Background(), m, in, WithAssignment(imposter)); err == nil {
		t.Error("linear assignment named \"sqrt\" should be rejected")
	}
}

type namedAssignment struct {
	name string
	f    func(float64) float64
}

func (a namedAssignment) Name() string               { return a.name }
func (a namedAssignment) Power(loss float64) float64 { return a.f(loss) }

// Cancellation reaches inside the long-running algorithms, not just the
// Solve entry check: each ctx-aware core aborts at its next loop
// iteration when handed a canceled context.
func TestAlgorithmsHonorCancellationMidRun(t *testing.T) {
	m := DefaultModel()
	in := fourLinks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	if _, _, err := coloring.SqrtLPColoringCtx(ctx, m, in, rng, coloring.LPOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("lp coloring: err = %v, want context.Canceled", err)
	}
	if _, _, err := (treestar.Pipeline{}).ColoringWithStats(ctx, m, in, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("pipeline coloring: err = %v, want context.Canceled", err)
	}
	if _, err := distributed.Default().RunContext(ctx, m, in, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("distributed run: err = %v, want context.Canceled", err)
	}
}

func TestParseAssignmentPublic(t *testing.T) {
	for spec, wantName := range map[string]string{
		"uniform":  "uniform",
		"linear":   "linear",
		"sqrt":     "sqrt",
		"exp:0.75": Exponent(0.75).Name(),
	} {
		a, err := ParseAssignment(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if a.Name() != wantName {
			t.Errorf("%s: name = %q, want %q", spec, a.Name(), wantName)
		}
	}
	if a, err := ParseAssignment("exp:2"); err != nil || a.Power(3) != 9 {
		t.Errorf("exp:2 parse = %v, err %v", a, err)
	}
	// Equivalent exponents canonicalize to the named assignments, so
	// "exp:0.5" satisfies the sqrt-only solvers.
	for spec, want := range map[string]string{"exp:0": "uniform", "exp:0.5": "sqrt", "exp:1": "linear"} {
		a, err := ParseAssignment(spec)
		if err != nil || a.Name() != want {
			t.Errorf("%s: name = %v (err %v), want %s", spec, a, err, want)
		}
	}
	for _, bad := range []string{"cubic", "exp:abc", ""} {
		if _, err := ParseAssignment(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

// TestDirectEngineParity runs every registry solver in the auto mode
// (dense at these sizes) and on the matrix-free direct engine on a
// seeded uniform/clustered corpus, and checks the engine changes nothing:
// colors and powers agree bitwise, request for request, for every solver
// and seed.
func TestDirectEngineParity(t *testing.T) {
	m := DefaultModel()
	for _, n := range []int{40, 120} {
		for seed := int64(1); seed <= 3; seed++ {
			uniform, err := instance.UniformRandom(rand.New(rand.NewSource(seed)), n, 300, 1, 8)
			if err != nil {
				t.Fatal(err)
			}
			clustered, err := instance.Clustered(rand.New(rand.NewSource(seed)), n, 1+n/16, 20, 300, 1)
			if err != nil {
				t.Fatal(err)
			}
			for kind, in := range map[string]*Instance{"uniform": uniform, "clustered": clustered} {
				for _, name := range Solvers() {
					var res [2]*Result
					for k, mode := range []AffectanceMode{AffectAuto, AffectDirect} {
						r, err := Lookup(name).Solve(context.Background(), m, in,
							WithSeed(seed), WithAffectanceMode(mode), WithValidation(true))
						if err != nil {
							t.Fatalf("%s %s n=%d seed %d mode %s: %v", name, kind, n, seed, mode, err)
						}
						res[k] = r
					}
					auto, direct := res[0].Schedule, res[1].Schedule
					for i := range auto.Colors {
						if auto.Colors[i] != direct.Colors[i] || math.Float64bits(auto.Powers[i]) != math.Float64bits(direct.Powers[i]) {
							t.Fatalf("%s %s n=%d seed %d: request %d is (color %d, power %g) in the auto mode, (%d, %g) on the direct engine",
								name, kind, n, seed, i, auto.Colors[i], auto.Powers[i], direct.Colors[i], direct.Powers[i])
						}
					}
				}
			}
		}
	}
}

// TestSolveAllSharedCache solves the same instance many times in one
// batch, each worker over its own engine, and the results must match the
// unbatched solve.
func TestSolveAllSharedCache(t *testing.T) {
	m := DefaultModel()
	in, err := instance.UniformRandom(rand.New(rand.NewSource(21)), 40, 150, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	instances := []*Instance{in, in, in, in, in, in, in, in}
	results, err := SolveAll(context.Background(), m, instances, Lookup("greedy"), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	single, err := Lookup("greedy").Solve(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range results {
		for i := range r.Schedule.Colors {
			if r.Schedule.Colors[i] != single.Schedule.Colors[i] {
				t.Fatalf("batch result %d diverged from single solve at request %d", k, i)
			}
		}
	}
}

// TestAffectanceModeSelection pins the engine-selection matrix of
// attachCache: auto switches to sparse only above the threshold, on a
// coordinate metric, with a positive epsilon; explicit modes override;
// forcing sparse on a matrix metric fails the solve.
func TestAffectanceModeSelection(t *testing.T) {
	m := DefaultModel()
	small, err := instance.UniformRandom(rand.New(rand.NewSource(2)), 30, 150, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	powers := PowersFor(m, small, Sqrt())

	engineType := func(o Options) string {
		t.Helper()
		mm, err := o.attachCache(m, small, Bidirectional, powers)
		if err != nil {
			t.Fatal(err)
		}
		switch c := mm.CacheFor(small, powers).(type) {
		case nil:
			return "none"
		case *affect.Cache:
			return "dense"
		case *sparse.Engine:
			return "sparse"
		case *affect.Direct:
			return "direct"
		default:
			return fmt.Sprintf("%T", c)
		}
	}

	base := DefaultOptions()
	if got := engineType(base); got != "dense" {
		t.Errorf("auto below threshold: engine = %s, want dense", got)
	}
	forced := base
	forced.Mode = AffectSparse
	if got := engineType(forced); got != "sparse" {
		t.Errorf("forced sparse: engine = %s, want sparse", got)
	}
	forced.Epsilon = 0
	if got := engineType(forced); got != "dense" {
		t.Errorf("sparse with ε=0: engine = %s, want dense (bitwise degeneration)", got)
	}
	direct := base
	direct.Mode = AffectDirect
	if got := engineType(direct); got != "direct" {
		t.Errorf("forced direct: engine = %s, want direct", got)
	}

	// Auto above the threshold selects sparse without touching the dense
	// matrices (this would be a multi-GB allocation if it picked dense at
	// a production size; here the threshold boundary is what's pinned).
	big, err := instance.UniformRandom(rand.New(rand.NewSource(3)), sparse.AutoThreshold, 700, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	bigPowers := PowersFor(m, big, Sqrt())
	mm, err := DefaultOptions().attachCache(m, big, Bidirectional, bigPowers)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mm.CacheFor(big, bigPowers).(*sparse.Engine); !ok {
		t.Errorf("auto at threshold: want the sparse engine")
	}

	// Metrics without coordinates cannot be bucketed: auto falls back to
	// dense, forcing sparse errors out.
	line, err := instance.LineChain(8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Supported(line.Space) {
		t.Fatal("line metrics should support the grid")
	}
	dm := make([][]float64, 3)
	for i := range dm {
		dm[i] = make([]float64, 3)
		for j := range dm[i] {
			if i != j {
				dm[i][j] = float64(1 + (i+j)%2)
			}
		}
	}
	matIn, err := NewMatrixInstance(dm, []Request{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	matPowers := PowersFor(m, matIn, Sqrt())
	forcedMat := DefaultOptions()
	forcedMat.Mode = AffectSparse
	if _, err := forcedMat.attachCache(m, matIn, Bidirectional, matPowers); err == nil {
		t.Error("forcing sparse on a matrix metric should fail")
	}
	if _, err := Lookup("greedy").Solve(context.Background(), m, matIn,
		WithAffectanceMode(AffectSparse)); err == nil {
		t.Error("solve with forced sparse on a matrix metric should fail")
	}
	if _, err := Lookup("greedy").Solve(context.Background(), m, matIn, WithValidation(true)); err != nil {
		t.Errorf("auto on a matrix metric should fall back to dense: %v", err)
	}

	// A negative budget fails every solver uniformly, not only the ones
	// whose engine selection reaches the sparse constructor, and so does
	// the exported builder.
	for _, name := range []string{"greedy", "pipeline"} {
		if _, err := Lookup(name).Solve(context.Background(), m, small, WithEpsilon(-1)); err == nil {
			t.Errorf("%s with negative epsilon should fail", name)
		}
	}
	if _, err := BuildEngine(m, small, Bidirectional, powers, WithEpsilon(-1)); err == nil {
		t.Error("BuildEngine with negative epsilon should fail")
	}

	// Every solver core rides the tracker interfaces now: forced sparse
	// succeeds on a coordinate metric and the schedule passes the exact
	// oracle, while a coordinate-free metric still fails loudly.
	for _, name := range []string{"pipeline", "distributed"} {
		res, err := Lookup(name).Solve(context.Background(), m, small,
			WithAffectanceMode(AffectSparse), WithValidation(true))
		if err != nil {
			t.Errorf("%s with forced sparse: %v", name, err)
		} else if res.Stats.Engine != "sparse" {
			t.Errorf("%s with forced sparse reports engine %q", name, res.Stats.Engine)
		}
		if _, err := Lookup(name).Solve(context.Background(), m, matIn,
			WithAffectanceMode(AffectSparse)); err == nil {
			t.Errorf("%s with forced sparse on a matrix metric should fail", name)
		}
	}

	// Mode and parse round-trips.
	for _, mode := range []AffectanceMode{AffectAuto, AffectDense, AffectSparse, AffectDirect} {
		got, err := ParseAffectanceMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseAffectanceMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if _, err := ParseAffectanceMode("octree"); err == nil {
		t.Error("unknown mode should fail to parse")
	}
}

// TestStatsReportsEngineUsed is the regression test for the silent
// engine-mismatch bug: Stats must report the engine a solve actually ran
// on, not the one requested. Before the fix an auto mode that resolved to
// dense (small instance, coordinate-free metric) was indistinguishable
// from a sparse run.
func TestStatsReportsEngineUsed(t *testing.T) {
	m := DefaultModel()
	small, err := instance.UniformRandom(rand.New(rand.NewSource(9)), 24, 120, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	engine := func(opts ...Option) string {
		t.Helper()
		res, err := Lookup("greedy").Solve(context.Background(), m, small, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Engine
	}
	// Auto below the threshold resolves — and must report — dense.
	if got := engine(); got != "dense" {
		t.Errorf("auto below threshold: Stats.Engine = %q, want dense", got)
	}
	if got := engine(WithAffectanceMode(AffectSparse)); got != "sparse" {
		t.Errorf("forced sparse: Stats.Engine = %q, want sparse", got)
	}
	// Forced sparse with ε = 0 is the documented dense degeneration: the
	// run is bitwise dense and must say so.
	if got := engine(WithAffectanceMode(AffectSparse), WithEpsilon(0)); got != "dense" {
		t.Errorf("sparse with eps=0: Stats.Engine = %q, want dense", got)
	}
	if got := engine(WithAffectanceMode(AffectDirect)); got != "direct" {
		t.Errorf("forced direct: Stats.Engine = %q, want direct", got)
	}
	// A coordinate-free metric downgrades auto to dense; the downgrade
	// must be visible.
	dm := [][]float64{{0, 2, 5}, {2, 0, 4}, {5, 4, 0}}
	matIn, err := NewMatrixInstance(dm, []Request{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lookup("greedy").Solve(context.Background(), m, matIn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != "dense" {
		t.Errorf("auto on a matrix metric: Stats.Engine = %q, want dense", res.Stats.Engine)
	}
	// The online solver runs on the engine the options select, like every
	// solver: the direct engine when forced.
	online, err := Lookup("online").Solve(context.Background(), m, small, WithAffectanceMode(AffectDirect))
	if err != nil {
		t.Fatal(err)
	}
	if online.Stats.Engine != "direct" {
		t.Errorf("online forced direct: Stats.Engine = %q, want direct", online.Stats.Engine)
	}
	if res := mustSolve(t, "online", m, small, WithAffectanceMode(AffectSparse)); res.Stats.Engine != "sparse" {
		t.Errorf("online forced sparse: Stats.Engine = %q, want sparse", res.Stats.Engine)
	}
}

// mustSolve is a tiny helper for engine-reporting assertions.
func mustSolve(t *testing.T, name string, m Model, in *Instance, opts ...Option) *Result {
	t.Helper()
	res, err := Lookup(name).Solve(context.Background(), m, in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
