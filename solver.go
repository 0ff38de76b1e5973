// Solver API: every scheduling algorithm of the package behind one
// interface, selectable by name from a registry, configured through
// functional options, and runnable in bulk with SolveAll.
package oblivious

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/distributed"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/sinr"
	"repro/internal/treestar"
)

// Solver is the uniform entry point to every scheduling algorithm. A
// solver colors an instance under the physical model m, honoring the
// functional options (variant, power assignment, seed, ...).
//
// Implementations must be safe for concurrent use: SolveAll calls Solve
// from many goroutines.
type Solver interface {
	// Name is the registry key the solver was built with.
	Name() string
	// Solve colors the instance and reports the schedule together with
	// unified statistics and timing.
	Solve(ctx context.Context, m Model, in *Instance, opts ...Option) (*Result, error)
}

// Stats unifies the diagnostics of all algorithms. Fields that do not
// apply to the solver that produced the result stay at their zero value.
type Stats struct {
	// Colors is the schedule length (number of time slots).
	Colors int
	// Energy is the total transmission energy of the schedule.
	Energy float64
	// Elapsed is the wall-clock time of the Solve call.
	Elapsed time.Duration
	// Engine names the affectance engine the solve's mode resolved to for
	// the instance: "dense", "sparse" or "direct". It reports the resolved
	// selection, not the mode requested: an auto mode that resolved to
	// dense (small instance, coordinate-free metric, ε = 0) says so here.
	// The pipeline qualifies the scalar: it re-resolves the mode per
	// restricted instance it extracts a class from (and thins kept sets
	// below 32 on the direct engine), so "sparse" there means the
	// selection at the full instance, with the shrinking tail free to drop
	// to dense under auto.
	Engine string
	// LP carries the LP-based coloring diagnostics (lp solver only).
	LP *LPStats
	// Pipeline carries the Theorem 2 pipeline diagnostics (pipeline
	// solver only).
	Pipeline *PipelineStats
	// Slots is the number of contention slots (distributed solver only).
	Slots int
	// Attempts counts transmission attempts (distributed solver only).
	Attempts int
	// Failures counts failed attempts (distributed solver only).
	Failures int
	// Online carries the churn-engine counters — peak slots, repairs,
	// re-packs, migrations, row-operation cost (online solver only).
	Online *OnlineStats
}

// Result bundles everything a Solve call produces.
type Result struct {
	// Solver is the name of the solver that produced the result.
	Solver string
	// Schedule assigns a power and a color to every request.
	Schedule *Schedule
	// Stats reports the unified algorithm diagnostics.
	Stats Stats
}

// Options collects the knobs shared by all solvers. Build it with the
// With* functional options; the zero value is not meaningful — solvers
// start from DefaultOptions.
type Options struct {
	// Variant selects directed or bidirectional SINR constraints.
	Variant Variant
	// Assignment is the oblivious power assignment.
	Assignment Assignment
	// Seed drives the randomized algorithms.
	Seed int64
	// Validate re-checks the produced schedule against the exact SINR
	// constraints before returning it.
	Validate bool
	// Parallelism bounds the worker pool of SolveAll (0 = GOMAXPROCS).
	Parallelism int
	// Mode selects the affectance engine on the solver's SINR hot path:
	// the dense n×n matrices, the sparse spatially-bucketed engine, the
	// matrix-free direct engine, or automatic selection by instance size
	// (the default; see WithAffectanceMode).
	Mode AffectanceMode
	// Epsilon is the sparse engine's far-field error budget: every
	// stored-or-bounded entry overestimates the true affectance by at
	// most a factor 1+ε, so sparse-accepted schedules stay exactly
	// feasible. 0 degenerates to the dense path bitwise (see
	// WithEpsilon).
	Epsilon float64
	// Admission names the slot-admission policy of the online engine:
	// "first-fit", "best-fit", or "power-fit" (online solver only).
	Admission string
	// Repair names the departure-repair strategy of the online engine:
	// "lazy", "threshold", or "eager" (online solver only).
	Repair string
	// Obs is the observability collector the solve reports into (see
	// WithObserver). Nil — the default — disables all instrumentation
	// at a single predictable branch per site.
	Obs *obs.Collector
	// Deadline is the online engine's per-event admission budget (see
	// WithDeadline; online solver only). 0 — the default — disables the
	// deadline ladder entirely.
	Deadline time.Duration
	// RetryAttempts and RetryBackoff bound the online engine's retries
	// of transient tracker-provider failures (see WithRetry; online
	// solver only).
	RetryAttempts int
	RetryBackoff  time.Duration

	// fellBack is set by buildEngine when an auto-resolved sparse build
	// failed and dense matrices were built instead, so Stats.Engine
	// reports the engine that actually ran. A shared pointer because
	// Options travels by value; atomic because the pipeline builds
	// engines from concurrent stages.
	fellBack *atomic.Bool
}

// DefaultOptions returns the settings a bare Solve call runs with:
// bidirectional constraints, square root powers, seed 1, no
// re-validation, GOMAXPROCS batch parallelism, the auto engine mode with
// the default sparse error budget, first-fit admission with lazy repair
// for the online engine.
func DefaultOptions() Options {
	return Options{
		Variant: Bidirectional, Assignment: Sqrt(), Seed: 1,
		Mode: AffectAuto, Epsilon: DefaultSparseEpsilon,
		Admission: online.FirstFit.String(), Repair: online.LazyRepair.String(),
	}
}

// AffectanceMode selects how the affectance engine on the SINR hot path
// is realized.
type AffectanceMode int

const (
	// AffectAuto picks the engine by instance size: dense below
	// sparse.AutoThreshold requests (bitwise-exact, ≤ ~½ GB of
	// matrices), sparse above it when the metric carries coordinates
	// and the epsilon budget is positive, dense otherwise.
	AffectAuto AffectanceMode = iota
	// AffectDense forces the dense n×n engine regardless of size.
	AffectDense
	// AffectSparse forces the grid-bucketed sparse engine; solving fails
	// if the instance metric carries no coordinates (explicit distance
	// matrices, tree or star metrics).
	AffectSparse
	// AffectDirect runs every solver on the matrix-free direct engine
	// (affect.Direct), which computes each pair on demand with the
	// formulas the dense matrices are filled with, so schedules agree
	// with AffectDense bitwise. It needs O(n) memory instead of the dense
	// engine's O(n²) and has no build cost.
	AffectDirect
)

// String names the mode as the CLI flags spell it.
func (mode AffectanceMode) String() string {
	switch mode {
	case AffectAuto:
		return "auto"
	case AffectDense:
		return "dense"
	case AffectSparse:
		return "sparse"
	case AffectDirect:
		return "direct"
	default:
		return fmt.Sprintf("AffectanceMode(%d)", int(mode))
	}
}

// ParseAffectanceMode parses the textual mode syntax of the CLIs:
// "auto", "dense", "sparse", or "direct".
func ParseAffectanceMode(s string) (AffectanceMode, error) {
	switch s {
	case "auto":
		return AffectAuto, nil
	case "dense":
		return AffectDense, nil
	case "sparse":
		return AffectSparse, nil
	case "direct":
		return AffectDirect, nil
	default:
		return 0, fmt.Errorf("unknown affectance mode %q (want auto, dense, sparse, or direct)", s)
	}
}

// DefaultSparseEpsilon is the default far-field error budget of the
// sparse affectance engine (see internal/affect/sparse).
const DefaultSparseEpsilon = sparse.DefaultEpsilon

// Resolve collapses the mode to the engine a solve would actually use
// for the instance under the given epsilon budget: auto picks sparse at
// n ≥ sparse.AutoThreshold when the metric carries grid coordinates and
// the budget is positive, dense otherwise; forced sparse with ε = 0
// resolves to dense (the documented bitwise degeneration); dense and
// direct resolve to themselves. It is the single selection predicate —
// buildEngine (behind attachCache, the pipeline's per-sub-instance
// stage-5 builder and BuildEngine) and Stats.Engine reporting consult
// it, so the rule cannot drift.
func (mode AffectanceMode) Resolve(in *Instance, eps float64) AffectanceMode {
	if mode == AffectSparse {
		if eps == 0 {
			// The documented degeneration: ε = 0 keeps every pair exact,
			// which is the dense engine bitwise — resolve (and report) it
			// as such.
			return AffectDense
		}
		return mode
	}
	if mode != AffectAuto {
		return mode
	}
	if eps != 0 && in.N() >= sparse.AutoThreshold && sparse.Supported(in.Space) {
		return AffectSparse
	}
	return AffectDense
}

// Option mutates Options. Pass any number of them to Solve or SolveAll.
type Option func(*Options)

// WithVariant selects the SINR constraint variant (default Bidirectional).
func WithVariant(v Variant) Option { return func(o *Options) { o.Variant = v } }

// WithAssignment selects the oblivious power assignment (default Sqrt).
func WithAssignment(a Assignment) Option { return func(o *Options) { o.Assignment = a } }

// WithSeed seeds the randomized algorithms (default 1).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithValidation makes the solver re-check its schedule against the exact
// SINR constraints and fail if it is infeasible (default off).
func WithValidation(on bool) Option { return func(o *Options) { o.Validate = on } }

// WithParallelism bounds the SolveAll worker pool (default 0 = GOMAXPROCS).
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithAffectanceMode selects the affectance engine: AffectDense for the
// exact n×n matrices, AffectSparse for the grid-bucketed conservative
// engine that scales to n≈50000, AffectDirect for the matrix-free
// engine that computes every pair on demand (bitwise the dense results
// at O(n) memory, so useful for measuring the matrices' effect or
// bounding memory), AffectAuto (the default) to switch between dense
// and sparse on instance size. The sparse engine never produces an
// infeasible schedule — its margins are lower bounds on the exact ones —
// but it may use more colors; WithEpsilon tunes that trade.
func WithAffectanceMode(mode AffectanceMode) Option {
	return func(o *Options) { o.Mode = mode }
}

// WithEpsilon sets the sparse engine's far-field error budget (default
// DefaultSparseEpsilon): each far-pair affectance bound overestimates the
// true value by at most a factor 1+ε. Smaller ε keeps more exact entries
// (more memory, tighter margins, fewer colors); ε = 0 degenerates to the
// dense engine bitwise. Negative values fail the solve.
func WithEpsilon(eps float64) Option { return func(o *Options) { o.Epsilon = eps } }

// WithAdmission selects the online engine's slot-admission policy by name:
// "first-fit" (default), "best-fit", or "power-fit". Only the online
// solver consults it.
func WithAdmission(name string) Option { return func(o *Options) { o.Admission = name } }

// WithRepair selects the online engine's departure-repair strategy by
// name: "lazy" (default), "threshold", or "eager". Only the online solver
// consults it.
func WithRepair(name string) Option { return func(o *Options) { o.Repair = name } }

// WithObserver attaches an observability collector (internal/obs) to the
// solve. Every layer reports into it: the wrapper counts solves and
// spans the whole call ("span/solve/<name>"), the engine builders record
// build latency and resident bytes ("affect/…", "sparse/…"), the
// pipeline spans its stages and HST builds ("span/pipeline/…"), and the
// online engine mirrors its counters and emits typed events (see
// online.WithObserver for the metric names). SolveAll passes the same
// collector to every worker, so a batch aggregates into one snapshot.
// A nil collector (the default) keeps every hot path on its zero-cost
// disabled branch.
func WithObserver(c *obs.Collector) Option { return func(o *Options) { o.Obs = c } }

// WithDeadline sets the online engine's per-event admission budget
// (default 0 = off): an event that exceeds it degrades gracefully —
// best-fit admission finishes as first-fit, compaction is deferred
// under the repair budget — instead of blocking. Only the online
// solver consults it; see online.WithDeadline for the ladder.
func WithDeadline(d time.Duration) Option { return func(o *Options) { o.Deadline = d } }

// WithRetry bounds the online engine's retries of transient tracker
// acquisition failures (default 0 = fail fast): up to attempts retries
// with exponential backoff starting at backoff. Only the online solver
// consults it; see online.WithRetry.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(o *Options) {
		o.RetryAttempts = attempts
		o.RetryBackoff = backoff
	}
}

// sparseBuild is the sparse-engine constructor, a variable so the
// resilience tests can force build failures.
var sparseBuild = sparse.New

// fallbackDenseBytes is the largest dense-matrix footprint buildEngine
// will fall back to when an auto-resolved sparse build fails: 2 GiB,
// four times the ~½ GB the auto threshold itself deems routine. Beyond
// it the sparse failure is surfaced instead — silently allocating tens
// of gigabytes is worse than failing.
const fallbackDenseBytes = int64(2) << 30

// buildEngine constructs the affectance engine the resolved mode selects
// for (instance, variant, powers). It is the single mode→constructor
// mapping: attachCache, the pipeline's per-sub-instance stage-5 builder
// and BuildEngine all go through it, so they cannot diverge.
func (o Options) buildEngine(m Model, in *Instance, v Variant, powers []float64) (sinr.Cache, error) {
	mode := o.Mode.Resolve(in, o.Epsilon)
	if mode == AffectDirect {
		return affect.NewDirect(m, v, in, powers), nil
	}
	isSparse := mode == AffectSparse
	var start time.Time
	if o.Obs.Enabled() {
		start = time.Now()
	}
	var (
		c   sinr.Cache
		err error
	)
	switch {
	case isSparse:
		var e *sparse.Engine
		if e, err = sparseBuild(m, v, in, powers, sparse.Options{Epsilon: o.Epsilon}); err == nil {
			c = e
		}
		if err != nil && o.Mode == AffectAuto && denseBytes(in, v) <= fallbackDenseBytes {
			// Resilience fallback: the auto mode selected sparse as an
			// optimization, not a mandate. When the sparse build fails and
			// the dense matrices still fit in the fallback budget, build
			// them instead of failing the solve — and record it, both in
			// the "resilience/fallbacks" counter and (via fellBack) in
			// Stats.Engine, so the degradation is visible. A forced sparse
			// mode still fails loudly: the caller asked for that engine.
			err = nil
			isSparse = false
			if o.fellBack != nil {
				o.fellBack.Store(true)
			}
			if o.Obs.Enabled() {
				o.Obs.Counter("resilience/fallbacks").Inc()
			}
			c = affect.New(m, v, in, powers)
		}
	default:
		c = affect.New(m, v, in, powers)
	}
	if err != nil {
		return nil, err
	}
	if o.Obs.Enabled() {
		// Build latency is a histogram (the pipeline builds one engine per
		// kept class, so the distribution matters); resident bytes is a
		// last-build gauge.
		name := "affect"
		if isSparse {
			name = "sparse"
		}
		o.Obs.Counter(name + "/builds").Inc()
		o.Obs.Histogram(name + "/build_ns").Observe(time.Since(start).Nanoseconds())
		if sz, ok := c.(interface{ Bytes() int64 }); ok {
			o.Obs.Gauge(name + "/bytes").Set(float64(sz.Bytes()))
		}
	}
	return c, nil
}

// denseBytes estimates the dense affectance footprint for the instance
// under the variant: two n×n float64 matrices for directed (into and
// from), four for bidirectional.
func denseBytes(in *Instance, v Variant) int64 {
	n := int64(in.N())
	matrices := int64(2)
	if v == Bidirectional {
		matrices = 4
	}
	return matrices * n * n * 8
}

// attachCache returns m with the affectance engine for (variant,
// instance, powers) attached, honoring WithAffectanceMode and
// WithEpsilon. It fails when the sparse engine is forced on a metric
// without coordinates. Solve has already rejected an invalid epsilon
// budget.
func (o Options) attachCache(m Model, in *Instance, v Variant, powers []float64) (Model, error) {
	c, err := o.buildEngine(m, in, v, powers)
	if err != nil {
		return m, err
	}
	return m.WithCache(c), nil
}

// BuildEngine builds the affectance engine a solve with the same options
// runs on for (instance, variant, powers): the engine WithAffectanceMode
// and WithEpsilon select, with the auto mode's dense fallback and the
// build metrics of WithObserver. It serves callers that drive an engine
// themselves, such as a churn replay through the online engine; attach
// the result with Model.WithCache. It fails on an invalid epsilon budget
// and when the sparse engine is forced on a metric without coordinates.
func BuildEngine(m Model, in *Instance, v Variant, powers []float64, opts ...Option) (sinr.Cache, error) {
	o := buildOptions(opts)
	if err := checkEpsilon(o.Epsilon); err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	return o.buildEngine(m, in, v, powers)
}

// checkEpsilon rejects an invalid sparse error budget. Solve and
// BuildEngine apply it whatever the mode, not just where the engine
// selection happens to reach the sparse constructor.
func checkEpsilon(eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("epsilon must be ≥ 0, got %g", eps)
	}
	return nil
}

func buildOptions(opts []Option) Options {
	o := DefaultOptions()
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	// One shared fallback flag per solve, surviving the by-value copies
	// the engine builders receive.
	o.fellBack = new(atomic.Bool)
	return o
}

// ParseAssignment parses the textual power-assignment syntax shared by the
// CLIs and examples: "uniform", "linear", "sqrt", or "exp:<tau>" for the
// assignment p = loss^tau. It is the single public parser; commands must
// not hand-roll their own.
func ParseAssignment(s string) (Assignment, error) {
	switch {
	case s == "uniform":
		return Uniform(1), nil
	case s == "linear":
		return Linear(), nil
	case s == "sqrt":
		return Sqrt(), nil
	case strings.HasPrefix(s, "exp:"):
		tau, err := strconv.ParseFloat(strings.TrimPrefix(s, "exp:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad exponent in %q: %w", s, err)
		}
		// Exponent canonicalizes the named special cases, so "exp:0.5"
		// is the sqrt assignment and satisfies the sqrt-only solvers.
		return Exponent(tau), nil
	default:
		return nil, fmt.Errorf("unknown power assignment %q (want uniform, linear, sqrt, or exp:<tau>)", s)
	}
}

// SolveFunc is the algorithm core a Solver wraps: it receives the fully
// resolved Options and returns a Result whose Schedule is set and whose
// algorithm-specific Stats fields are filled in. Name, timing, Colors,
// Energy and optional validation are handled by the wrapper.
type SolveFunc func(ctx context.Context, m Model, in *Instance, o Options) (*Result, error)

// NewSolver wraps an algorithm core as a Solver. The wrapper applies the
// options, rejects an already-canceled context, measures wall-clock time,
// fills the shared Stats fields and, with WithValidation(true), re-checks
// the schedule against the SINR constraints.
func NewSolver(name string, fn SolveFunc) Solver {
	return solverFunc{name: name, fn: fn}
}

type solverFunc struct {
	name string
	fn   SolveFunc
}

func (s solverFunc) Name() string { return s.name }

func (s solverFunc) Solve(ctx context.Context, m Model, in *Instance, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("%s: nil instance", s.name)
	}
	o := buildOptions(opts)
	if o.Assignment == nil {
		return nil, fmt.Errorf("%s: nil power assignment", s.name)
	}
	if err := checkEpsilon(o.Epsilon); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if o.Obs.Enabled() {
		// Carry the collector in the context so instrumented internals
		// (the pipeline's stage spans) find it without their own plumbing,
		// and span the whole call — nested stage spans parent under it.
		ctx = obs.WithCollector(ctx, o.Obs)
		o.Obs.Counter("solve/" + s.name).Inc()
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, "solve/"+s.name)
		defer sp.End()
	}
	start := time.Now()
	res, err := s.fn(ctx, m, in, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	// No post-run ctx check: if the core finished despite a late
	// cancellation, the computed schedule is delivered rather than
	// discarded.
	if res == nil || res.Schedule == nil {
		return nil, fmt.Errorf("%s: solver returned no schedule", s.name)
	}
	res.Solver = s.name
	res.Stats.Colors = res.Schedule.NumColors()
	res.Stats.Energy = res.Schedule.TotalEnergy()
	if res.Stats.Engine == "" {
		// Report the engine the solve ran on, not the one requested: the
		// single Resolve predicate keeps this in lockstep with attachCache,
		// so an auto→dense resolution is visible instead of silent.
		res.Stats.Engine = o.Mode.Resolve(in, o.Epsilon).String()
	}
	if o.fellBack != nil && o.fellBack.Load() && res.Stats.Engine == AffectSparse.String() {
		// The auto-selected sparse build failed and the solve ran on the
		// dense fallback; Resolve alone cannot know that.
		res.Stats.Engine = AffectDense.String()
	}
	if o.Validate {
		if err := Validate(m, in, o.Variant, res.Schedule); err != nil {
			return nil, fmt.Errorf("%s: produced schedule failed validation: %w", s.name, err)
		}
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// ErrUnknownSolver is wrapped by the error a Lookup of an unregistered
// name reports when solved.
var ErrUnknownSolver = errors.New("unknown solver")

var (
	registryMu sync.RWMutex
	registry   = map[string]Solver{}
)

// Register adds a solver to the registry under the given name. It panics
// on an empty name, a nil solver, or a duplicate registration — solver
// names are a flat global namespace resolved by CLI flags.
func Register(name string, s Solver) {
	if name == "" {
		panic("oblivious: Register with empty solver name")
	}
	if s == nil {
		panic("oblivious: Register with nil solver")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("oblivious: Register called twice for solver %q", name))
	}
	registry[name] = s
}

// unregister removes a solver registration. Test use only: the chaos
// tests register deliberately misbehaving solvers and must not leak
// them into the registry other tests iterate.
func unregister(name string) {
	registryMu.Lock()
	delete(registry, name)
	registryMu.Unlock()
}

// Lookup returns the solver registered under name. It never returns nil:
// an unregistered name yields a stub solver whose Solve reports an error
// wrapping ErrUnknownSolver, so the call chains as
// Lookup("lp").Solve(ctx, m, in, WithSeed(7)) without a nil check.
func Lookup(name string) Solver {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return unknownSolver(name)
	}
	return s
}

func unknownSolver(name string) Solver {
	return NewSolver(name, func(context.Context, Model, *Instance, Options) (*Result, error) {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownSolver, name, strings.Join(Solvers(), ", "))
	})
}

// Solvers returns the sorted names of all registered solvers.
func Solvers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("greedy", NewSolver("greedy", solveGreedy))
	Register("lp", NewSolver("lp", solveLP))
	Register("online", NewSolver("online", solveOnline))
	Register("pipeline", NewSolver("pipeline", solvePipeline))
	Register("distributed", NewSolver("distributed", solveDistributed))
}

// solveGreedy colors by greedy first-fit (longest request first). It is
// the only solver that supports both variants and every assignment.
func solveGreedy(_ context.Context, m Model, in *Instance, o Options) (*Result, error) {
	powers := power.Powers(m, in, o.Assignment)
	m, err := o.attachCache(m, in, o.Variant, powers)
	if err != nil {
		return nil, err
	}
	s, err := coloring.GreedyFirstFit(m, in, o.Variant, powers, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s}, nil
}

// solveOnline replays the instance as a churn trace through the dynamic
// engine (internal/online): every request arrives in a seeded random
// order, then two churn rounds depart and re-admit a random third of
// them — exercising the departure-repair strategy — so the run ends with
// every request active and the engine's slot assignment is a complete
// schedule. Admission and repair are selected with WithAdmission /
// WithRepair; the engine counters land in Stats.Online. The slot trackers
// come from the engine attachCache attaches, like every solver's: the
// direct engine under AffectDirect.
func solveOnline(ctx context.Context, m Model, in *Instance, o Options) (*Result, error) {
	adm, err := online.ParseAdmission(o.Admission)
	if err != nil {
		return nil, err
	}
	rep, err := online.ParseRepair(o.Repair)
	if err != nil {
		return nil, err
	}
	powers := power.Powers(m, in, o.Assignment)
	m, err = o.attachCache(m, in, o.Variant, powers)
	if err != nil {
		return nil, err
	}
	engOpts := []online.Option{online.WithAdmission(adm), online.WithRepair(rep)}
	if o.Obs.Enabled() {
		engOpts = append(engOpts, online.WithObserver(o.Obs))
	}
	if o.Deadline > 0 {
		engOpts = append(engOpts, online.WithDeadline(o.Deadline))
	}
	if o.RetryAttempts > 0 || o.RetryBackoff > 0 {
		engOpts = append(engOpts, online.WithRetry(o.RetryAttempts, o.RetryBackoff))
	}
	eng, err := online.New(m, in, o.Variant, powers, engOpts...)
	if err != nil {
		return nil, err
	}
	events := 0
	tick := func() error {
		if events++; events%64 == 0 {
			return ctx.Err()
		}
		return nil
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for _, i := range rng.Perm(in.N()) {
		if _, err := eng.Arrive(i); err != nil {
			return nil, err
		}
		if err := tick(); err != nil {
			return nil, err
		}
	}
	for round := 0; round < 2; round++ {
		churn := rng.Perm(in.N())[:in.N()/3]
		for _, i := range churn {
			if err := eng.Depart(i); err != nil {
				return nil, err
			}
			if err := tick(); err != nil {
				return nil, err
			}
		}
		for _, k := range rng.Perm(len(churn)) {
			if _, err := eng.Arrive(churn[k]); err != nil {
				return nil, err
			}
			if err := tick(); err != nil {
				return nil, err
			}
		}
	}
	st := eng.Stats()
	return &Result{Schedule: eng.Snapshot(), Stats: Stats{Online: &st}}, nil
}

// requireSqrtBidirectional guards the Theorem 2/15 algorithms, which are
// defined for bidirectional requests under the square root assignment.
// The assignment is checked by behavior, not by name: any implementation
// that computes √loss qualifies, and an imposter that merely calls itself
// "sqrt" does not.
func requireSqrtBidirectional(o Options) error {
	if o.Variant != Bidirectional {
		return errors.New("requires the bidirectional variant")
	}
	for _, loss := range []float64{1, 2, 9, 1e4, 1e8} {
		want := math.Sqrt(loss)
		if got := o.Assignment.Power(loss); math.Abs(got-want) > 1e-9*want {
			return fmt.Errorf("requires the sqrt assignment (got %q: power(%g) = %g, want %g)",
				o.Assignment.Name(), loss, got, want)
		}
	}
	return nil
}

// solveLP runs the randomized LP-based O(log n)-approximation of
// Theorem 15.
func solveLP(ctx context.Context, m Model, in *Instance, o Options) (*Result, error) {
	if err := requireSqrtBidirectional(o); err != nil {
		return nil, err
	}
	// Attach the engine here (rather than letting the coloring build its
	// own) so the affectance options apply; the coloring recognizes the
	// covering engine on its internally derived powers by value.
	m, err := o.attachCache(m, in, Bidirectional, power.Powers(m, in, power.Sqrt()))
	if err != nil {
		return nil, err
	}
	s, stats, err := coloring.SqrtLPColoringCtx(ctx, m, in, rand.New(rand.NewSource(o.Seed)), coloring.LPOptions{})
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Stats: Stats{LP: stats}}, nil
}

// solvePipeline runs the constructive Theorem 2 pipeline (tree embeddings,
// centroid stars, thinning). Its stage-5 thinning engine follows the
// affectance options: the pipeline re-resolves the mode per restricted
// instance it extracts a class from, so under auto a large instance thins
// on the sparse grid and the shrinking tail drops back to dense rows.
//
// The pipeline's internal fan-out (HST builds, core scans, stage-3 star
// selection, stage-5 score init) is bounded at GOMAXPROCS and splits one
// rng seed per extracted color class, so the schedule for a given
// WithSeed is bitwise identical at any parallelism — WithParallelism
// governs only the SolveAll batch pool, not the per-solve workers.
func solvePipeline(ctx context.Context, m Model, in *Instance, o Options) (*Result, error) {
	if err := requireSqrtBidirectional(o); err != nil {
		return nil, err
	}
	// Forcing sparse on a metric without coordinates must fail loudly up
	// front — the stage-5 builder only runs for kept sets of 32+, so a
	// small instance would otherwise slip through the forced mode.
	if o.Mode.Resolve(in, o.Epsilon) == AffectSparse && !sparse.Supported(in.Space) {
		return nil, sparse.ErrUnsupportedMetric
	}
	pipe := treestar.Pipeline{Engine: func(mm sinr.Model, subIn *Instance, powers []float64) (sinr.Cache, error) {
		return o.buildEngine(mm, subIn, Bidirectional, powers)
	}}
	s, stats, err := pipe.ColoringWithStats(ctx, m, in, rand.New(rand.NewSource(o.Seed)))
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s, Stats: Stats{Pipeline: stats}}, nil
}

// solveDistributed simulates the slotted decay contention protocol under
// the chosen oblivious assignment.
func solveDistributed(ctx context.Context, m Model, in *Instance, o Options) (*Result, error) {
	if o.Variant != Bidirectional {
		return nil, errors.New("requires the bidirectional variant")
	}
	p := distributed.Default()
	p.Assignment = o.Assignment
	// Pre-attach the engine the affectance options select; RunContext
	// skips its own build when the model already carries a covering
	// engine.
	m, err := o.attachCache(m, in, Bidirectional, power.Powers(m, in, o.Assignment))
	if err != nil {
		return nil, err
	}
	res, err := p.RunContext(ctx, m, in, rand.New(rand.NewSource(o.Seed)))
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule: res.Schedule,
		Stats:    Stats{Slots: res.Slots, Attempts: res.Attempts, Failures: res.Failures},
	}, nil
}

// safeSolve runs one Solve call with a panic barrier: a panicking
// solver core surfaces as that instance's error (with the panicking
// goroutine's stack attached) instead of killing the whole process —
// one poisoned instance must not take a batch down.
func safeSolve(ctx context.Context, solver Solver, m Model, in *Instance, opts ...Option) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("solver %s panicked: %v\n%s", solver.Name(), r, debug.Stack())
		}
	}()
	return solver.Solve(ctx, m, in, opts...)
}

// SolveAll fans the instances out across a worker pool and solves each
// with the given solver, returning one Result per instance in input
// order. Instance i is solved with seed Seed+i so a batch mixes
// independent randomness while staying reproducible regardless of worker
// interleaving. The pool size is WithParallelism (default GOMAXPROCS).
//
// The first solver error cancels the remaining work and is returned
// wrapped with the instance index; a canceled ctx aborts the batch with
// ctx.Err().
func SolveAll(ctx context.Context, m Model, instances []*Instance, solver Solver, opts ...Option) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if solver == nil {
		return nil, errors.New("oblivious: SolveAll with nil solver")
	}
	o := buildOptions(opts)
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(instances) {
		workers = len(instances)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]*Result, len(instances))
	if len(instances) == 0 {
		return results, nil
	}

	batchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	if o.Obs.Enabled() {
		o.Obs.Gauge("batch/workers").Set(float64(workers))
		o.Obs.Counter("batch/instances").Add(int64(len(instances)))
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The pprof labels make per-solver and per-worker CPU visible in
			// live profiles (oblsched -http): samples from this goroutine and
			// everything it calls carry solver=<name> worker=<k>.
			pprof.Do(batchCtx, pprof.Labels("solver", solver.Name(), "worker", strconv.Itoa(w)), func(ctx context.Context) {
				for i := range jobs {
					res, err := safeSolve(ctx, solver, m, instances[i], append(append([]Option(nil), opts...), WithSeed(o.Seed+int64(i)))...)
					if err != nil {
						fail(fmt.Errorf("instance %d: %w", i, err))
						return
					}
					results[i] = res
				}
			})
		}(w)
	}
feed:
	for i := range instances {
		select {
		case jobs <- i:
		case <-batchCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
