// Command oblsched schedules an interference instance read from a JSON
// file (see cmd/gen for the format) and prints the resulting coloring.
// The -algo flag resolves through the solver registry of the root
// package, so every registered solver is available by name.
//
// Usage:
//
//	oblsched -in instance.json [-variant bidirectional] [-power sqrt]
//	         [-algo greedy|lp|online|pipeline|distributed] [-alpha 3]
//	         [-beta 1] [-seed 1] [-affect auto|dense|sparse|direct] [-eps 8]
//
// The affectance engine behind the SINR hot path is selected with
// -affect: "dense" materializes the exact n×n matrices, "sparse" the
// grid-bucketed conservative engine that scales to tens of thousands of
// requests, "direct" computes every pair on demand at O(n) memory
// (bitwise the dense results), and "auto" (default) switches between
// dense and sparse on instance size. -eps is the sparse far-field error
// budget; 0 forces the dense path bitwise. -trace and -chaos runs build
// their engine with oblivious.BuildEngine, the builder every solve uses.
//
// Large runs are profiled without editing code:
//
//	oblsched -in big.json -affect sparse -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// The online solver takes two extra knobs:
//
//	oblsched -in instance.json -algo online -admission best-fit -repair eager
//
// and -trace switches from scheduling to churn simulation: the instance
// is replayed as a stream of arrivals and departures through the online
// engine, reporting peak/final slot counts, repair work, and per-event
// latency instead of a schedule:
//
//	oblsched -in instance.json -trace poisson [-nevents 2000]
//	         [-admission power-fit] [-repair threshold]
//
// -chaos hardens a -trace run into a fault-injection drill: the trace
// is mutated with the named fault kinds (duplicate arrivals, unknown
// ids, reordered pairs, bursts) and the engine's tracker provider is
// wrapped with transient failures and latency spikes; the harness
// (internal/faultinject) verifies the typed-error contract, the
// no-mutation-on-rejection contract, and per-event feasibility, and
// -chaos-seeds widens the drill into a sweep:
//
//	oblsched -in instance.json -trace poisson -chaos all -chaos-seeds 20
//	oblsched -in instance.json -trace bursty -chaos duplicate,unknown
//
// -checkpoint makes the engine durable across invocations: when the
// file exists the engine is restored from it (feasibility re-proved)
// before the replay, and the post-replay state is written back:
//
//	oblsched -in instance.json -trace poisson -checkpoint engine.ckpt
//
// Observability (internal/obs) is wired through three flags:
//
//	oblsched -in instance.json -algo pipeline -metrics metrics.json
//	oblsched -in instance.json -trace poisson -events events.jsonl -metrics m.json
//	oblsched -in big.json -algo online -http localhost:6060
//
// -metrics writes the collector snapshot (counters, gauges, span and
// latency histograms with p50/p90/p99) as JSON on exit; -events streams
// the engine's typed events (arrive/depart/admit/evict/compact/repair)
// as JSON lines during -trace runs; -http serves the live snapshot at
// /metrics plus the runtime profiling endpoints under /debug/pprof/
// while the run is in flight.
//
// Note: -power is enforced for every algorithm. Earlier versions
// silently ignored it for lp and pipeline; those algorithms require the
// sqrt assignment and now reject a conflicting -power instead. The
// churn event count moved from -events to -nevents when -events became
// the event-stream path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	oblivious "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/online/sim"
)

// config carries every flag of one invocation; run consumes it so the
// tests can drive the command without a process boundary.
type config struct {
	in, variant, power, algo string
	alpha, beta, noise       float64
	seed                     int64
	verbose                  bool
	out, check               string
	admission, repair        string
	trace                    string
	nevents                  int
	affect                   string
	eps                      float64
	cpuProfile, memProfile   string
	metrics, events          string
	httpAddr                 string
	chaos                    string
	chaosSeeds               int
	checkpoint               string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "", "path to the instance JSON (required)")
	flag.StringVar(&cfg.variant, "variant", "bidirectional", "directed or bidirectional")
	flag.StringVar(&cfg.power, "power", "sqrt", "uniform, linear, sqrt, or exp:<tau> (lp/pipeline require sqrt)")
	flag.StringVar(&cfg.algo, "algo", "greedy", "solver name: "+strings.Join(oblivious.Solvers(), ", "))
	flag.Float64Var(&cfg.alpha, "alpha", 3, "path-loss exponent α")
	flag.Float64Var(&cfg.beta, "beta", 1, "SINR gain β")
	flag.Float64Var(&cfg.noise, "noise", 0, "ambient noise ν")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the randomized algorithms")
	flag.BoolVar(&cfg.verbose, "v", false, "print the full color classes")
	flag.StringVar(&cfg.out, "out", "", "write the schedule as JSON to this path")
	flag.StringVar(&cfg.check, "check", "", "instead of scheduling, validate this schedule JSON against the instance")
	flag.StringVar(&cfg.admission, "admission", "first-fit", "online admission policy: first-fit, best-fit, or power-fit")
	flag.StringVar(&cfg.repair, "repair", "lazy", "online repair strategy: lazy, threshold, or eager")
	flag.StringVar(&cfg.trace, "trace", "", "instead of scheduling, simulate churn: poisson, bursty, or replay")
	flag.IntVar(&cfg.nevents, "nevents", 0, "churn events for -trace poisson/bursty (default 10·n)")
	flag.StringVar(&cfg.affect, "affect", "auto", "affectance engine: auto, dense, sparse, or direct")
	flag.Float64Var(&cfg.eps, "eps", oblivious.DefaultSparseEpsilon, "sparse far-field error budget ε (0 = dense bitwise)")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write an allocation profile to this path on exit")
	flag.StringVar(&cfg.metrics, "metrics", "", "write the metrics snapshot JSON to this path on exit")
	flag.StringVar(&cfg.events, "events", "", "write the engine event stream as JSON lines to this path (-trace only)")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve live /metrics and /debug/pprof on this address while running")
	flag.StringVar(&cfg.chaos, "chaos", "", "inject faults into the -trace replay: \"all\" or a comma list of tracker, latency, duplicate, unknown, reorder, burst, cancel")
	flag.IntVar(&cfg.chaosSeeds, "chaos-seeds", 1, "number of seeds the -chaos sweep runs (seed, seed+1, ...)")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "engine checkpoint path: restored before the -trace replay when it exists, written after it")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "oblsched:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) (err error) {
	if cfg.in == "" {
		return errors.New("missing -in")
	}
	data, err := os.ReadFile(cfg.in)
	if err != nil {
		return err
	}
	in, err := oblivious.UnmarshalInstance(data)
	if err != nil {
		return err
	}
	var v oblivious.Variant
	switch cfg.variant {
	case "directed":
		v = oblivious.Directed
	case "bidirectional":
		v = oblivious.Bidirectional
	default:
		return fmt.Errorf("unknown variant %q", cfg.variant)
	}
	m := oblivious.Model{Alpha: cfg.alpha, Beta: cfg.beta, Noise: cfg.noise}

	// Only the online solver and -trace consult these, but a typo must not
	// pass silently for the others (the same lesson -power already taught).
	if _, err := online.ParseAdmission(cfg.admission); err != nil {
		return err
	}
	if _, err := online.ParseRepair(cfg.repair); err != nil {
		return err
	}
	mode, err := oblivious.ParseAffectanceMode(cfg.affect)
	if err != nil {
		return err
	}
	if cfg.eps < 0 {
		return fmt.Errorf("-eps must be ≥ 0, got %g", cfg.eps)
	}
	if cfg.events != "" && cfg.trace == "" {
		return errors.New("-events streams engine events and needs -trace (the churn event count is -nevents)")
	}
	if cfg.chaos != "" && cfg.trace == "" {
		return errors.New("-chaos injects faults into a churn replay and needs -trace")
	}
	if cfg.checkpoint != "" && cfg.trace == "" {
		return errors.New("-checkpoint snapshots the online engine and needs -trace")
	}
	if cfg.chaosSeeds == 0 {
		cfg.chaosSeeds = 1 // struct-built configs skip the flag default
	}
	if cfg.chaosSeeds < 1 {
		return fmt.Errorf("-chaos-seeds must be ≥ 1, got %d", cfg.chaosSeeds)
	}
	if cfg.chaosSeeds > 1 && cfg.checkpoint != "" {
		return errors.New("-checkpoint works with a single run; drop it or -chaos-seeds")
	}

	// One collector serves all three observability flags; nil when none
	// is given, which keeps every instrumented path on its disabled
	// branch.
	var col *obs.Collector
	if cfg.metrics != "" || cfg.events != "" || cfg.httpAddr != "" {
		col = obs.NewCollector()
	}
	if cfg.httpAddr != "" {
		ln, lerr := net.Listen("tcp", cfg.httpAddr)
		if lerr != nil {
			return fmt.Errorf("http: %w", lerr)
		}
		srv := &http.Server{Handler: col.Mux()}
		go srv.Serve(ln) //nolint — Serve returns when srv closes below
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "oblsched: serving /metrics and /debug/pprof/ on http://%s\n", ln.Addr())
	}
	// The snapshot is written after the solve or trace finished, so it
	// holds the run's final counters rather than a mid-flight cut.
	writeMetrics := func() error {
		if cfg.metrics == "" {
			return nil
		}
		f, ferr := os.Create(cfg.metrics)
		if ferr != nil {
			return fmt.Errorf("metrics: %w", ferr)
		}
		if ferr := col.WriteJSON(f); ferr != nil {
			f.Close()
			return fmt.Errorf("metrics: %w", ferr)
		}
		if ferr := f.Close(); ferr != nil {
			return fmt.Errorf("metrics: %w", ferr)
		}
		return nil
	}

	// Profile failures are run's failures: a silently truncated or missing
	// profile after a half-hour run wastes the whole run, so Close and
	// write errors propagate through the named return instead of going to
	// stderr as advisory noise.
	if cfg.cpuProfile != "" {
		f, cerr := os.Create(cfg.cpuProfile)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if cfg.memProfile != "" {
		defer func() {
			if werr := writeMemProfile(cfg.memProfile); werr != nil && err == nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
		}()
	}

	if cfg.check != "" {
		sdata, err := os.ReadFile(cfg.check)
		if err != nil {
			return err
		}
		sched, err := oblivious.UnmarshalSchedule(sdata)
		if err != nil {
			return err
		}
		if err := oblivious.Validate(m, in, v, sched); err != nil {
			return fmt.Errorf("schedule invalid: %w", err)
		}
		fmt.Fprintf(w, "schedule valid: %d requests, %d colors\n", in.N(), sched.NumColors())
		return nil
	}

	if cfg.trace != "" {
		var terr error
		if cfg.chaos != "" || cfg.checkpoint != "" {
			terr = runChaos(w, m, in, v, mode, col, cfg)
		} else {
			terr = runTrace(w, m, in, v, mode, col, cfg)
		}
		if terr != nil {
			return terr
		}
		return writeMetrics()
	}

	a, err := oblivious.ParseAssignment(cfg.power)
	if err != nil {
		return err
	}
	opts := []oblivious.Option{
		oblivious.WithVariant(v),
		oblivious.WithAssignment(a),
		oblivious.WithSeed(cfg.seed),
		oblivious.WithAffectanceMode(mode),
		oblivious.WithEpsilon(cfg.eps),
		oblivious.WithAdmission(cfg.admission),
		oblivious.WithRepair(cfg.repair),
		oblivious.WithValidation(true),
	}
	if col.Enabled() {
		opts = append(opts, oblivious.WithObserver(col))
	}
	res, err := oblivious.Lookup(cfg.algo).Solve(context.Background(), m, in, opts...)
	if err != nil {
		return err
	}
	s := res.Schedule
	fmt.Fprintf(w, "requests: %d\ncolors:   %d\nenergy:   %.4g\nengine:   %s\nvalid:    yes\n",
		in.N(), s.NumColors(), s.TotalEnergy(), res.Stats.Engine)
	if res.Stats.Slots > 0 {
		fmt.Fprintf(w, "slots:    %d contention slots\n", res.Stats.Slots)
	}
	if st := res.Stats.Online; st != nil {
		fmt.Fprintf(w, "churn:    peak %d slots, %d repairs (%d moves, %d re-packs)\n",
			st.PeakSlots, st.Repairs, st.Moves, st.Repacks)
	}
	if cfg.out != "" {
		data, err := oblivious.MarshalSchedule(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cfg.verbose {
		for c, class := range s.Classes() {
			fmt.Fprintf(w, "color %d:", c)
			for _, i := range class {
				fmt.Fprintf(w, " %d", i)
			}
			fmt.Fprintln(w)
		}
	}
	return writeMetrics()
}

// writeMemProfile snapshots the retained heap to path, reporting create,
// write, and close failures alike — a heap profile cut short by a full
// disk must not look like a small heap.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the retained set before sampling
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genTrace builds the churn trace the -trace flag names.
func genTrace(rng *rand.Rand, kind string, in *oblivious.Instance, events int) (sim.Trace, error) {
	n := in.N()
	switch kind {
	case "poisson":
		// Rate and holding time chosen for a steady state of ≈ n/2 active.
		return sim.Poisson(rng, n, float64(n)/4, 2, events), nil
	case "bursty":
		size := n / 8
		if size < 2 {
			size = 2
		}
		return sim.Bursty(rng, n, 1, size, 2, events), nil
	case "replay":
		return sim.Replay(in), nil
	default:
		return nil, fmt.Errorf("unknown -trace %q (want poisson, bursty, or replay)", kind)
	}
}

// runChaos is the hardened replay path behind -chaos and -checkpoint:
// the churn trace is mutated into a hostile one (duplicates, unknown
// ids, reordered pairs, bursts), the tracker provider is wrapped with
// transient failures and latency spikes, and the whole thing is driven
// through the fault-injection harness, which enforces the typed-error
// contract, the no-mutation-on-rejection contract, and per-event
// feasibility. The cancel kind crashes the replay mid-trace and
// verifies a checkpoint/restore round trip before finishing on the
// restored engine. With -chaos-seeds > 1 the run sweeps consecutive
// seeds. A -checkpoint path is restored before the replay when the
// file exists and (re)written after it.
func runChaos(w io.Writer, m oblivious.Model, in *oblivious.Instance, v oblivious.Variant, mode oblivious.AffectanceMode, col *obs.Collector, cfg config) error {
	var kinds []faultinject.Kind
	if cfg.chaos != "" {
		var err error
		if kinds, err = faultinject.ParseKinds(cfg.chaos); err != nil {
			return err
		}
	}
	hasKind := func(want faultinject.Kind) bool {
		for _, k := range kinds {
			if k == want {
				return true
			}
		}
		return false
	}
	a, err := oblivious.ParseAssignment(cfg.power)
	if err != nil {
		return err
	}
	adm, err := online.ParseAdmission(cfg.admission)
	if err != nil {
		return err
	}
	rep, err := online.ParseRepair(cfg.repair)
	if err != nil {
		return err
	}
	powers := oblivious.PowersFor(m, in, a)
	n := in.N()
	events := cfg.nevents
	if events <= 0 {
		events = 10 * n
	}

	engOpts := []online.Option{online.WithAdmission(adm), online.WithRepair(rep)}
	if col.Enabled() {
		engOpts = append(engOpts, online.WithObserver(col))
	}
	var injCfg faultinject.Config
	if hasKind(faultinject.KindTrackerError) {
		injCfg.TrackerFailProb, injCfg.TrackerFailRun = 0.2, 2
		engOpts = append(engOpts, online.WithRetry(4, 50*time.Microsecond))
	}
	if hasKind(faultinject.KindLatency) {
		injCfg.LatencyProb, injCfg.Latency = 0.02, 200*time.Microsecond
		engOpts = append(engOpts, online.WithDeadline(100*time.Microsecond))
	}

	var total faultinject.Result
	var injectedFails, injectedSpikes int
	for s := 0; s < cfg.chaosSeeds; s++ {
		seed := cfg.seed + int64(s)
		// Fresh cache, injector and engine per seed: the sweep proves
		// independent runs, not one long one.
		inner, err := oblivious.BuildEngine(m, in, v, powers,
			oblivious.WithAffectanceMode(mode), oblivious.WithEpsilon(cfg.eps), oblivious.WithObserver(col))
		if err != nil {
			return err
		}
		inj := faultinject.NewInjector(seed, injCfg)
		mm := m
		if wc := faultinject.WrapCache(inner, inj); wc != nil {
			mm = m.WithCache(wc)
		} else {
			mm = m.WithCache(inner)
		}
		var eng *online.Engine
		restored := false
		if cfg.checkpoint != "" {
			if f, oerr := os.Open(cfg.checkpoint); oerr == nil {
				cp, rerr := online.ReadCheckpoint(f)
				f.Close()
				if rerr != nil {
					return rerr
				}
				if eng, rerr = online.Restore(mm, in, powers, cp, engOpts...); rerr != nil {
					return rerr
				}
				restored = true
				fmt.Fprintf(w, "restored:  %d active requests in %d slots from %s\n",
					eng.Len(), eng.NumSlots(), cfg.checkpoint)
			} else if !errors.Is(oerr, os.ErrNotExist) {
				return oerr
			}
		}
		if eng == nil {
			if eng, err = online.New(mm, in, v, powers, engOpts...); err != nil {
				return err
			}
		}
		inj.Arm()
		rng := rand.New(rand.NewSource(seed))
		tr, err := genTrace(rng, cfg.trace, in, events)
		if err != nil {
			return err
		}
		var ft faultinject.FaultTrace
		if len(kinds) > 0 {
			ft = faultinject.Mutate(rng, n, tr, kinds, 0.08)
		} else {
			ft = faultinject.Lift(tr)
		}
		abortAt := -1
		if hasKind(faultinject.KindCancel) {
			abortAt = len(ft) / 2
		}
		res, err := faultinject.Drive(context.Background(), eng, ft, faultinject.Options{AbortAt: abortAt})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if res.Aborted && abortAt >= 0 {
			// The crash model: checkpoint the survivor, restore, verify
			// the round trip, and finish the trace on the restored engine.
			inj.Disarm()
			cp := eng.Checkpoint()
			eng, err = online.Restore(mm, in, powers, cp, engOpts...)
			if err != nil {
				return fmt.Errorf("seed %d: restore after crash: %w", seed, err)
			}
			inj.Arm()
			rest, err := faultinject.Drive(context.Background(), eng, ft[abortAt:], faultinject.Options{AbortAt: -1})
			if err != nil {
				return fmt.Errorf("seed %d: post-restore replay: %w", seed, err)
			}
			res.Applied += rest.Applied
			res.Rejected += rest.Rejected
			res.TrackerUnavailable += rest.TrackerUnavailable
		}
		inj.Disarm()
		// Oracle re-check, mirroring the plain trace path: every slot
		// against the uncached model, not just the engine's trackers.
		for sl := 0; sl < eng.NumSlots(); sl++ {
			if members := eng.Slot(sl); len(members) > 0 && !m.SetFeasible(in, v, powers, members) {
				return fmt.Errorf("seed %d: slot %d infeasible per the uncached oracle", seed, sl)
			}
		}
		if cfg.checkpoint != "" {
			f, cerr := os.Create(cfg.checkpoint)
			if cerr != nil {
				return fmt.Errorf("checkpoint: %w", cerr)
			}
			if cerr = online.WriteCheckpoint(f, eng.Checkpoint()); cerr != nil {
				f.Close()
				return fmt.Errorf("checkpoint: %w", cerr)
			}
			if cerr = f.Close(); cerr != nil {
				return fmt.Errorf("checkpoint: %w", cerr)
			}
			verb := "written"
			if restored {
				verb = "rewritten"
			}
			fmt.Fprintf(w, "checkpoint: %s to %s (%d active, %d slots)\n",
				verb, cfg.checkpoint, eng.Len(), eng.NumSlots())
		}
		total.Applied += res.Applied
		total.Rejected += res.Rejected
		total.TrackerUnavailable += res.TrackerUnavailable
		injectedFails += inj.TrackerFails()
		injectedSpikes += inj.Latencies()
	}
	faults := "none"
	if cfg.chaos != "" {
		faults = cfg.chaos
	}
	fmt.Fprintf(w, "chaos:     %s over %d seed(s), faults: %s\n", cfg.trace, cfg.chaosSeeds, faults)
	fmt.Fprintf(w, "events:    %d applied, %d rejected (all with the expected typed error), %d tracker-unavailable\n",
		total.Applied, total.Rejected, total.TrackerUnavailable)
	fmt.Fprintf(w, "injected:  %d tracker failures, %d latency spikes\n", injectedFails, injectedSpikes)
	fmt.Fprintf(w, "feasible:  yes (oracle-checked, every run)\n")
	return nil
}

// runTrace replays the instance as a churn trace through the online
// engine and prints the time-series summary. It always runs observed:
// the cost line below needs the gated per-event timing, so when run
// passed no collector a local one is created here.
func runTrace(w io.Writer, m oblivious.Model, in *oblivious.Instance, v oblivious.Variant, mode oblivious.AffectanceMode, col *obs.Collector, cfg config) error {
	if !col.Enabled() {
		col = obs.NewCollector()
	}
	a, err := oblivious.ParseAssignment(cfg.power)
	if err != nil {
		return err
	}
	adm, err := online.ParseAdmission(cfg.admission)
	if err != nil {
		return err
	}
	rep, err := online.ParseRepair(cfg.repair)
	if err != nil {
		return err
	}
	powers := oblivious.PowersFor(m, in, a)
	// The engine the resolved mode selects rides on a copy of the model:
	// m itself stays cache-free for the oracle re-check below.
	c, err := oblivious.BuildEngine(m, in, v, powers,
		oblivious.WithAffectanceMode(mode), oblivious.WithEpsilon(cfg.eps), oblivious.WithObserver(col))
	if err != nil {
		return err
	}
	eng, err := online.New(m.WithCache(c), in, v, powers,
		online.WithAdmission(adm), online.WithRepair(rep), online.WithObserver(col))
	if err != nil {
		return err
	}
	var (
		evFile *os.File
		sink   *obs.JSONLSink
	)
	if cfg.events != "" {
		evFile, err = os.Create(cfg.events)
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		defer evFile.Close()
		sink = obs.NewJSONLSink(evFile)
		col.Attach(sink)
	}
	n := in.N()
	events := cfg.nevents
	if events <= 0 {
		events = 10 * n
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tr, err := genTrace(rng, cfg.trace, in, events)
	if err != nil {
		return err
	}
	res, err := sim.Run(eng, tr)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(w, "trace:     %s (%d events: %d arrivals, %d departures)\n",
		cfg.trace, res.Events, res.Arrivals, res.Departures)
	fmt.Fprintf(w, "policy:    admission %s, repair %s\n", adm, rep)
	fmt.Fprintf(w, "peak:      %d slots\n", res.PeakSlots)
	fmt.Fprintf(w, "final:     %d slots, %d active requests\n", eng.NumSlots(), eng.Len())
	fmt.Fprintf(w, "repairs:   %d (%d moves, %d re-packs)\n", st.Repairs, st.Moves, st.Repacks)
	fmt.Fprintf(w, "cost:      mean %v/event, max %v (%d tracker row ops)\n",
		time.Duration(int64(res.MeanCostNs())), time.Duration(res.MaxCostNs()), st.RowOps)
	// Re-check every slot against the uncached oracle, not just the
	// engine's own trackers.
	feasible := eng.Feasible()
	for s := 0; feasible && s < eng.NumSlots(); s++ {
		if members := eng.Slot(s); len(members) > 0 && !m.SetFeasible(in, v, powers, members) {
			feasible = false
		}
	}
	if !feasible {
		fmt.Fprintf(w, "feasible:  NO\n")
		return fmt.Errorf("infeasible slot after %d events", res.Events)
	}
	fmt.Fprintf(w, "feasible:  yes (oracle-checked)\n")
	if sink != nil {
		// Flushed (and closed, surfacing write errors) only on the success
		// path; the deferred Close covers the error returns above.
		if ferr := sink.Flush(); ferr != nil {
			return fmt.Errorf("events: %w", ferr)
		}
		if cerr := evFile.Close(); cerr != nil {
			return fmt.Errorf("events: %w", cerr)
		}
	}
	return nil
}
