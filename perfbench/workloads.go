package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/instance"
	"repro/internal/online"
	"repro/internal/online/sim"
	"repro/internal/power"
	"repro/internal/sinr"
)

// families are the registry solvers the benchmark drives, in the order a
// pass visits them on each instance.
var families = []string{"greedy", "lp", "pipeline", "distributed", "online"}

// kindSpec is one generated instance kind of a workload.
type kindSpec struct {
	kind     string // "uniform" or "clustered"
	n        int
	side     float64
	count    int      // instances of this kind
	families []string // families that solve every instance of the kind
}

// workloadSpec is one named workload: its batch instances, the churn
// traces replayed through online engines, and how the churn is spread
// over the solves of a run.
type workloadSpec struct {
	name  string
	kinds []kindSpec
	// churnEngines engines, one over each of the first instances of the
	// first kind, each replay their own trace: churnWarm events ramp an
	// engine from empty to its steady state untimed, during set-up, and
	// churnEvents are then measured.
	churnEngines, churnWarm, churnEvents int
	// The measured churn events are split into churnChunks chunks, spread
	// evenly over the solves of passes passes.
	churnChunks, passes int
	// reps[f] is how many times a pass solves each of family f's pairs
	// (once if absent): enough for a median where one solve is short.
	reps map[string]int
}

// lpKind is the instance kind lp solves on the workloads whose own
// instances are too large for it: one LP coloring takes about 0.5 s at
// n = 512 but over a minute at n = 2000. It keeps paper-512's density at
// half its size, where a solve takes about 50 ms, so that many instances
// fit in a run: one instance's solve time is about ±17% off the mean of
// its kind.
var lpKind = kindSpec{kind: "uniform", n: 256, side: 300 * math.Sqrt(256.0/512), count: 24, families: []string{"lp"}}

var workloads = []workloadSpec{
	{
		name: "paper-512",
		kinds: []kindSpec{
			{kind: "uniform", n: 512, side: 300, count: 4, families: families},
			// lp skips the clustered kind: its solve time there swings
			// from 1 s to 5 s between instances and LP seeds, too wide for
			// any steady lp.req_per_s a run of this length can average.
			{kind: "clustered", n: 512, side: 300, count: 4, families: []string{"greedy", "pipeline", "distributed", "online"}},
			// lp solves 28 more uniform instances: one solve's time is
			// about ±18% off the mean, with a long tail (0.17 to 0.53 s
			// within one seed), so four are too few for a steady sum.
			{kind: "uniform", n: 512, side: 300, count: 28, families: []string{"lp"}},
		},
		churnEngines: 4, churnWarm: 3 * 512, churnEvents: 200_000, churnChunks: 64, passes: 2,
		reps: map[string]int{"greedy": 5, "distributed": 5, "online": 5},
	},
	{
		name: "scale-4500",
		kinds: []kindSpec{
			{kind: "uniform", n: 4500, side: 300 * math.Sqrt(4500.0/2000), count: 1, families: []string{"greedy", "distributed", "online", "pipeline"}},
			// Clustered keeps paper-512's 16 requests per cluster and its
			// cluster density, so the side grows with √(n/512).
			{kind: "clustered", n: 4500, side: 300 * math.Sqrt(4500.0/512), count: 1, families: []string{"greedy", "distributed", "online"}},
			lpKind,
		},
		churnEngines: 1, churnWarm: 2 * 4500, churnEvents: 30_000, churnChunks: 15, passes: 1,
	},
	{
		name: "churn-2k",
		kinds: []kindSpec{
			{kind: "uniform", n: 2000, side: 300, count: 1, families: []string{"greedy", "distributed", "online", "pipeline"}},
			lpKind,
		},
		churnEngines: 1, churnWarm: 3 * 2000, churnEvents: 500_000, churnChunks: 28, passes: 2,
		reps: map[string]int{"greedy": 3, "distributed": 3, "online": 3},
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// batchInstance is one instance the batch families solve, with the
// solver seed every family uses on it.
type batchInstance struct {
	label string
	in    *oblivious.Instance
	seed  int64
}

// pair is one (instance, family) solve of a pass.
type pair struct {
	inst   *batchInstance
	family string
}

func (p pair) String() string { return p.family + "@" + p.inst.label }

// state is everything a workload's set-up produces: the pass order of
// batch pairs and the warmed-up churn engines with their measured events.
type state struct {
	pairs  []pair
	churns []*churn
}

// churn is the closed-loop churn client: one engine, one trace, one
// caller that waits for each Arrive/Depart before sending the next.
type churn struct {
	in       *oblivious.Instance
	powers   []float64
	warm     sim.Trace
	measured sim.Trace
	eng      *online.Engine
}

var model = oblivious.DefaultModel()

// subSeed derives an independent stream seed from the workload seed.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// generate builds the workload's inputs from the seed: instances, pairs
// in pass order, and the churn trace. The same seed gives the same inputs.
func generate(w workloadSpec, seed int64) (*state, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	st := &state{}
	var firstKind []*batchInstance
	idx := 0
	labels := map[string]int{} // instances so far of each kind and size
	for ki, k := range w.kinds {
		for c := 0; c < k.count; c++ {
			var (
				in  *oblivious.Instance
				err error
			)
			switch k.kind {
			case "uniform":
				in, err = instance.UniformRandom(rng, k.n, k.side, 1, 8)
			case "clustered":
				in, err = instance.Clustered(rng, k.n, 1+k.n/16, 20, k.side, 1)
			default:
				err = fmt.Errorf("unknown instance kind %q", k.kind)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %s instance %d: %w", w.name, k.kind, c, err)
			}
			base := fmt.Sprintf("%s-%d", k.kind, k.n)
			bi := &batchInstance{label: fmt.Sprintf("%s#%d", base, labels[base]), in: in, seed: subSeed(seed, uint64(100+idx))}
			labels[base]++
			idx++
			if ki == 0 {
				firstKind = append(firstKind, bi)
			}
			for _, f := range k.families {
				st.pairs = append(st.pairs, pair{inst: bi, family: f})
			}
		}
	}
	for e := 0; e < w.churnEngines; e++ {
		in := firstKind[e].in
		n := in.N()
		// The CLI's default churn shape: arrivals at rate n/4, mean hold
		// 2, so about n/2 requests are active in the steady state.
		tr := sim.Poisson(rand.New(rand.NewSource(subSeed(seed, uint64(2+e)))), n, float64(n)/4, 2, w.churnWarm+w.churnEvents)
		if len(tr) != w.churnWarm+w.churnEvents {
			return nil, fmt.Errorf("%s: churn trace has %d events, want %d", w.name, len(tr), w.churnWarm+w.churnEvents)
		}
		st.churns = append(st.churns, &churn{
			in:       in,
			powers:   power.Powers(model, in, power.Sqrt()),
			warm:     tr[:w.churnWarm],
			measured: tr[w.churnWarm:],
		})
	}
	return st, nil
}

// churnEngine builds the engine over the churn instance and the given
// affectance engine, with best-fit admission and threshold repair.
func churnEngine(c *churn, cache sinr.Cache, opts ...online.Option) (*online.Engine, error) {
	opts = append([]online.Option{online.WithAdmission(online.BestFit), online.WithRepair(online.ThresholdRepair)}, opts...)
	return online.New(model.WithCache(cache), c.in, sinr.Bidirectional, c.powers, opts...)
}

// engineName is the engine auto mode resolves to for the instance.
func engineName(in *oblivious.Instance) string {
	return oblivious.AffectAuto.Resolve(in, oblivious.DefaultSparseEpsilon).String()
}

// buildEngine is the engine the solvers' auto mode builds for the
// instance under the bidirectional variant (sparse.For at the default ε
// is sparse.New).
func buildEngine(in *oblivious.Instance, powers []float64) (sinr.Cache, error) {
	if engineName(in) == "sparse" {
		return sparse.New(model, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: oblivious.DefaultSparseEpsilon})
	}
	return affect.New(model, sinr.Bidirectional, in, powers), nil
}

// churnLog records timed replays: the latency of every call in µs,
// split by call type, the slot count after every event, the wall time of
// the replay loops, and where each replay (a chunk) ends.
type churnLog struct {
	arrive, depart []float64
	slots          []int
	wall           time.Duration
	chunks         []chunkMark
}

// chunkMark is the end of one replay in a churnLog: its end offsets in
// arrive and depart, its event count and its wall time.
type chunkMark struct {
	arrive, depart, events int
	wall                   time.Duration
}

func newChurnLog(events int) *churnLog {
	return &churnLog{
		arrive: make([]float64, 0, events/2+1),
		depart: make([]float64, 0, events/2+1),
		slots:  make([]int, 0, events),
	}
}

// replay applies the events to the engine as one closed-loop client that
// waits for each call before sending the next. With a log it times every
// call; without one (warm-up) it only applies them. Failed events are
// counted and reported, never retried.
func replay(eng *online.Engine, events sim.Trace, log *churnLog, report func(error)) (failed int) {
	start := time.Now()
	for _, ev := range events {
		var (
			t0  time.Time
			err error
		)
		if log != nil {
			t0 = time.Now()
		}
		if ev.Arrive {
			_, err = eng.Arrive(ev.Req)
		} else {
			err = eng.Depart(ev.Req)
		}
		if log != nil {
			us := float64(time.Since(t0).Nanoseconds()) / 1e3
			if ev.Arrive {
				log.arrive = append(log.arrive, us)
			} else {
				log.depart = append(log.depart, us)
			}
			log.slots = append(log.slots, eng.NumSlots())
		}
		if err != nil {
			failed++
			report(fmt.Errorf("churn event %+v: %w", ev, err))
		}
	}
	if log != nil {
		wall := time.Since(start)
		log.wall += wall
		log.chunks = append(log.chunks, chunkMark{arrive: len(log.arrive), depart: len(log.depart), events: len(events), wall: wall})
	}
	return failed
}

// checkChurn is the untimed post-trace gate: every slot passes its
// tracker's feasibility check, and the active requests' snapshot passes
// the exact oracle on a cache-free model.
func checkChurn(c *churn, eng *online.Engine) error {
	if !eng.Feasible() {
		return fmt.Errorf("churn: engine reports an infeasible slot")
	}
	snap := eng.Snapshot()
	var active []int
	for i, col := range snap.Colors {
		if col >= 0 {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return nil
	}
	sub, mapping, err := c.in.Restrict(active)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	s := &oblivious.Schedule{Colors: make([]int, len(mapping)), Powers: make([]float64, len(mapping))}
	for k, i := range mapping {
		s.Colors[k] = snap.Colors[i]
		s.Powers[k] = snap.Powers[i]
	}
	if err := model.CheckSchedule(sub, sinr.Bidirectional, s); err != nil {
		return fmt.Errorf("churn: snapshot of %d active requests: %w", len(active), err)
	}
	return nil
}

// setUp generates the inputs and warms the churn engines up, at least
// three times and for at least two seconds (at most nine times), and
// returns the last state with the median set-up wall time. Repeating it
// makes setup_s a median rather than one sample.
func setUp(w workloadSpec, seed int64, report func(error)) (*state, float64, error) {
	var (
		st      *state
		times   []float64
		elapsed float64
	)
	for len(times) < 3 || (len(times) < 9 && elapsed < 2) {
		st = nil
		settle()
		t0 := time.Now()
		s, err := generate(w, seed)
		if err != nil {
			return nil, 0, err
		}
		for _, c := range s.churns {
			cache, err := buildEngine(c.in, c.powers)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: churn engine: %w", w.name, err)
			}
			if c.eng, err = churnEngine(c, cache); err != nil {
				return nil, 0, fmt.Errorf("%s: churn engine: %w", w.name, err)
			}
			if failed := replay(c.eng, c.warm, nil, report); failed > 0 {
				return nil, 0, fmt.Errorf("%s: %d churn warm-up events failed", w.name, failed)
			}
		}
		st = s
		times = append(times, time.Since(t0).Seconds())
		elapsed += times[len(times)-1]
	}
	sort.Float64s(times)
	return st, times[len(times)/2], nil
}

// solve runs one pair through the public registry, as a user would:
// default options (auto engine, sqrt powers, bidirectional), the
// instance's seed, and exact validation of the schedule.
func solve(ctx context.Context, p pair, opts ...oblivious.Option) (*oblivious.Result, error) {
	opts = append([]oblivious.Option{oblivious.WithValidation(true), oblivious.WithSeed(p.inst.seed)}, opts...)
	return oblivious.Lookup(p.family).Solve(ctx, model, p.inst.in, opts...)
}

// settle collects garbage before a timed operation, outside the timing,
// and returns the freed heap to the OS when more than 256 MB of it sits
// idle. Left to itself, the runtime's background scavenger returns such a
// heap during the next timed operation: behind a pipeline solve at
// n = 4500, which frees about 500 MB, churn arrivals stalled for up to
// 30 ms. Smaller idle heaps are kept, so short solves do not pay for
// faulting their memory back in.
func settle() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapIdle-ms.HeapReleased > 256<<20 {
		debug.FreeOSMemory()
	}
}
