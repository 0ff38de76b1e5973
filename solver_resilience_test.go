package oblivious

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/affect/sparse"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// TestSolveAllRecoversPanic pins the worker panic barrier: a solver
// core that panics surfaces as that instance's error — with the panic
// value and a stack in the message — instead of crashing the batch.
func TestSolveAllRecoversPanic(t *testing.T) {
	Register("test-panic", NewSolver("test-panic",
		func(context.Context, Model, *Instance, Options) (*Result, error) {
			panic("deliberate test panic")
		}))
	defer unregister("test-panic")
	in := fourLinks(t)
	_, err := SolveAll(context.Background(), DefaultModel(),
		[]*Instance{in, in, in}, Lookup("test-panic"), WithParallelism(2))
	if err == nil {
		t.Fatal("SolveAll swallowed a solver panic")
	}
	for _, want := range []string{"instance ", "panicked", "deliberate test panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic error %q does not contain %q", err, want)
		}
	}
}

// TestSolvePanicOutsideBatch documents the boundary: a direct Solve
// call has no panic barrier — only SolveAll workers recover, because a
// batch must survive one poisoned instance while a direct caller wants
// the real stack.
func TestSolvePanicOutsideBatch(t *testing.T) {
	s := NewSolver("test-direct-panic", func(context.Context, Model, *Instance, Options) (*Result, error) {
		panic("direct")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("direct Solve did not propagate the panic")
		}
	}()
	_, _ = s.Solve(context.Background(), DefaultModel(), fourLinks(t))
}

// failingSparse swaps the sparse-engine constructor for one that always
// fails, restoring it on cleanup.
func failingSparse(t *testing.T) {
	t.Helper()
	old := sparseBuild
	sparseBuild = func(sinr.Model, sinr.Variant, *problem.Instance, []float64, sparse.Options) (*sparse.Engine, error) {
		return nil, errors.New("injected sparse build failure")
	}
	t.Cleanup(func() { sparseBuild = old })
}

// TestAutoSparseFallsBackToDense pins the resilience fallback: when the
// auto mode selects the sparse engine and its build fails, the solve
// runs on dense matrices instead (the instance is small enough for the
// fallback budget), increments resilience/fallbacks, and reports the
// engine it actually used.
func TestAutoSparseFallsBackToDense(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dense matrices for an auto-threshold instance")
	}
	failingSparse(t)
	in, err := instance.UniformRandom(rand.New(rand.NewSource(3)), sparse.AutoThreshold, 700, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	// Directed keeps the dense fallback at two matrices instead of four.
	res, err := Lookup("greedy").Solve(context.Background(), DefaultModel(), in,
		WithVariant(Directed), WithObserver(col))
	if err != nil {
		t.Fatalf("auto mode did not fall back: %v", err)
	}
	if res.Stats.Engine != AffectDense.String() {
		t.Fatalf("Stats.Engine = %q after fallback, want %q", res.Stats.Engine, AffectDense)
	}
	if got := col.Snapshot().Counters["resilience/fallbacks"]; got != 1 {
		t.Fatalf("resilience/fallbacks = %d, want 1", got)
	}
}

// TestForcedSparseStillFailsLoudly pins the fallback's boundary: a
// forced sparse mode is a mandate, not an optimization, so its build
// failure surfaces instead of silently running dense.
func TestForcedSparseStillFailsLoudly(t *testing.T) {
	failingSparse(t)
	in, err := instance.UniformRandom(rand.New(rand.NewSource(4)), 64, 150, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Lookup("greedy").Solve(context.Background(), DefaultModel(), in,
		WithAffectanceMode(AffectSparse))
	if err == nil || !strings.Contains(err.Error(), "injected sparse build failure") {
		t.Fatalf("forced sparse did not surface the build failure: %v", err)
	}
}

// TestOnlineSolverDegradeOptions threads the service-grade options
// through the online solver: a deadline plus retry budget must not
// change the correctness of the produced schedule.
func TestOnlineSolverDegradeOptions(t *testing.T) {
	in, err := instance.UniformRandom(rand.New(rand.NewSource(12)), 60, 150, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lookup("online").Solve(context.Background(), DefaultModel(), in,
		WithSeed(7), WithAdmission("best-fit"), WithRepair("threshold"),
		WithDeadline(time.Millisecond), WithRetry(3, 0), WithValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumColors() < 1 {
		t.Fatal("empty schedule")
	}
	if res.Stats.Online == nil {
		t.Fatal("online stats missing")
	}
}
