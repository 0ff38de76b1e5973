package online

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/affect"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// Engine maintains a feasible multi-slot schedule for a fixed instance
// under a stream of Arrive/Depart events, without ever recomputing from
// scratch. Each slot is a sinr.SetTracker of the instance's affectance
// engine (the dense matrices, the sparse grid, or the matrix-free direct
// engine), so an arrival costs one O(|slot|) feasibility probe per
// examined slot and a departure one O(|slot|) accumulator update — versus
// the O(n²·colors) of re-running a batch solver per event.
//
// Every mutation preserves the invariant that each slot passes its
// tracker's SetFeasible: admission only places a request where CanAdd
// holds, and repair migrations are departures followed by admissions.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	m      sinr.Model
	v      sinr.Variant
	in     *problem.Instance
	powers []float64
	// eng hands out the slot trackers: the engine the model carried for
	// the variant (a sparse engine runs the slots on its conservative
	// trackers, so the n×n matrices are never built), else the direct
	// engine.
	eng  affect.Engine
	lens []float64 // request lengths, for the power-fit order

	slots  []*slot
	free   []sinr.SetTracker // recycled trackers (Reset, not reallocated)
	slotOf []int             // slotOf[i] = slot of request i, -1 if absent
	active int

	admission Admission
	repair    Repair

	// Overload/failure handling (see degrade.go). deadline > 0 turns on
	// the per-event clock; evStart is the running event's start time.
	// repairDebt counts compactions deferred under latency pressure,
	// saturating at repairBudget. draining rejects arrivals.
	deadline      time.Duration
	evStart       time.Time
	repairDebt    int
	retryAttempts int
	retryBackoff  time.Duration
	draining      bool

	stats Stats

	// col is the live observability channel: per-event latency
	// histograms, counters mirroring Stats, slot/active gauges, and the
	// typed event stream. Nil (the default) keeps every event on the
	// original zero-instrumentation path — the handles below are then
	// nil too, and all recording calls reduce to one predictable branch.
	col       *obs.Collector
	cArrive   *obs.Counter
	cDepart   *obs.Counter
	cMove     *obs.Counter
	cRepack   *obs.Counter
	cRepair   *obs.Counter
	cShed     *obs.Counter
	cDeferred *obs.Counter
	cRetry    *obs.Counter
	hArrive   *obs.Histogram
	hDepart   *obs.Histogram
	gSlots    *obs.Gauge
	gActive   *obs.Gauge
}

// slot is one color class: its tracker plus the minimum member length,
// which the power-fit admission uses to preserve the longest-first
// discipline per slot (math.Inf(1) when empty).
type slot struct {
	tr     sinr.SetTracker
	minLen float64
}

// Stats counts the engine's lifetime work. RowOps is the cost proxy the
// churn experiments report: every tracker probe or update adds the size of
// the slot it touched (plus one), so it measures exactly the row
// operations an equivalent batch re-solve would redo in full.
type Stats struct {
	// Arrivals and Departures count the accepted events.
	Arrivals, Departures int
	// PeakSlots is the largest slot count ever reached.
	PeakSlots int
	// Moves counts requests migrated between slots by repair.
	Moves int
	// Repacks counts slots dissolved by migrating their members away.
	Repacks int
	// Repairs counts repair invocations that changed the schedule.
	Repairs int
	// Shed counts admissions whose best-fit scan was degraded to
	// first-fit because the event exceeded the WithDeadline budget.
	Shed int
	// DeferredRepairs counts compaction passes postponed under latency
	// pressure (bounded by repairBudget; see degrade.go).
	DeferredRepairs int
	// Retries counts transient tracker-provider failures that were
	// retried under the WithRetry budget.
	Retries int
	// RowOps is the total tracker row operations (see type comment).
	RowOps int64
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithAdmission selects the admission policy (default FirstFit).
func WithAdmission(a Admission) Option { return func(e *Engine) { e.admission = a } }

// WithRepair selects the repair strategy (default LazyRepair).
func WithRepair(r Repair) Option { return func(e *Engine) { e.repair = r } }

// WithObserver attaches an observability collector: every event then
// feeds the "engine/arrive_ns"/"engine/depart_ns" latency histograms,
// the counters mirroring Stats ("engine/arrivals", "engine/departures",
// "engine/moves", "engine/repacks", "engine/repairs"), and the
// "engine/slots"/"engine/active" gauges; sinks attached to the
// collector additionally receive the typed event stream. A nil
// collector (the default) keeps the engine on the uninstrumented path.
func WithObserver(c *obs.Collector) Option { return func(e *Engine) { e.setObserver(c) } }

// New builds an engine for the given model, instance, variant and powers.
// The slot trackers come from the affectance engine affect.Resolve picks:
// the one the model carries when it covers (instance, powers) for the
// variant — attach the dense matrices (affect.New) for the fastest
// events — and the matrix-free Direct engine otherwise, which needs O(n)
// memory and computes each pair on demand.
func New(m sinr.Model, in *problem.Instance, v sinr.Variant, powers []float64, opts ...Option) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if in == nil {
		return nil, errors.New("online: nil instance")
	}
	n := in.N()
	if len(powers) != n {
		return nil, fmt.Errorf("online: %d powers for %d requests", len(powers), n)
	}
	if v != sinr.Directed && v != sinr.Bidirectional {
		return nil, fmt.Errorf("online: unknown variant %d", int(v))
	}
	e := &Engine{
		m:      m,
		v:      v,
		in:     in,
		powers: append([]float64(nil), powers...),
		lens:   in.Lengths(),
		slotOf: make([]int, n),
	}
	for i := range e.slotOf {
		e.slotOf[i] = -1
	}
	for _, opt := range opts {
		if opt != nil {
			opt(e)
		}
	}
	switch e.admission {
	case FirstFit, BestFit, PowerFit:
	default:
		return nil, fmt.Errorf("online: unknown admission policy %d", int(e.admission))
	}
	switch e.repair {
	case LazyRepair, ThresholdRepair, EagerRepair:
	default:
		return nil, fmt.Errorf("online: unknown repair strategy %d", int(e.repair))
	}
	if e.deadline < 0 {
		return nil, fmt.Errorf("online: deadline must be ≥ 0, got %v", e.deadline)
	}
	if e.retryAttempts < 0 || e.retryBackoff < 0 {
		return nil, fmt.Errorf("online: retry budget must be ≥ 0, got (%d, %v)", e.retryAttempts, e.retryBackoff)
	}
	e.eng = affect.Resolve(m, v, in, e.powers)
	return e, nil
}

// --- accessors ---

// Len returns the number of currently active requests.
func (e *Engine) Len() int { return e.active }

// N returns the instance size: request ids are in [0, N).
func (e *Engine) N() int { return e.in.N() }

// NumSlots returns the current slot count, the online schedule length.
// Under LazyRepair interior slots may momentarily be empty; they still
// count, because the slot indices are live colors.
func (e *Engine) NumSlots() int { return len(e.slots) }

// SlotOf returns the slot of request i, or -1 if it is not active.
func (e *Engine) SlotOf(i int) int { return e.slotOf[i] }

// Slot returns the members of slot s in insertion order (a copy).
func (e *Engine) Slot(s int) []int { return e.slots[s].tr.Members() }

// Stats returns a snapshot of the lifetime counters. With a collector
// attached the same counts stream live through the observer (see
// WithObserver); the snapshot keeps working either way, and the churn
// tests pin the two views to agree after every trace.
func (e *Engine) Stats() Stats { return e.stats }

// Observer returns the attached collector, or nil. sim.Run consults it
// to decide whether per-event timing is worth collecting.
func (e *Engine) Observer() *obs.Collector { return e.col }

// Events attaches a sink to the engine's typed event stream
// (Arrive/Depart/Admit/Evict/Compact/Repair with slot, margin and
// latency), creating a collector on the fly when none was configured
// with WithObserver — the hook the daemon and TUI roadmap items attach
// through.
func (e *Engine) Events(s obs.Sink) {
	if e.col == nil {
		e.setObserver(obs.NewCollector())
	}
	e.col.Attach(s)
}

// setObserver installs the collector and resolves the metric handles
// once, so the per-event path never pays a registry lookup. A nil
// collector yields nil handles, whose record calls are no-ops.
func (e *Engine) setObserver(c *obs.Collector) {
	e.col = c
	e.cArrive = c.Counter("engine/arrivals")
	e.cDepart = c.Counter("engine/departures")
	e.cMove = c.Counter("engine/moves")
	e.cRepack = c.Counter("engine/repacks")
	e.cRepair = c.Counter("engine/repairs")
	e.cShed = c.Counter("engine/shed")
	e.cDeferred = c.Counter("engine/deferred_repairs")
	e.cRetry = c.Counter("engine/retries")
	e.hArrive = c.Histogram("engine/arrive_ns")
	e.hDepart = c.Histogram("engine/depart_ns")
	e.gSlots = c.Gauge("engine/slots")
	e.gActive = c.Gauge("engine/active")
}

// Feasible re-checks every slot's full SINR constraint set through the
// trackers in O(active) total. It holds after every event by construction;
// the churn tests call it after each simulated event.
func (e *Engine) Feasible() bool {
	for _, sl := range e.slots {
		if !sl.tr.SetFeasible() {
			return false
		}
	}
	return true
}

// Snapshot returns the current assignment as a Schedule: active requests
// get their slot as color — renumbered densely, skipping any momentarily
// empty interior slots, so a complete snapshot passes CheckSchedule —
// inactive requests stay at color -1.
func (e *Engine) Snapshot() *problem.Schedule {
	s := problem.NewSchedule(e.in.N())
	copy(s.Powers, e.powers)
	color := 0
	for _, sl := range e.slots {
		if sl.tr.Len() == 0 {
			continue
		}
		for k := 0; k < sl.tr.Len(); k++ {
			s.Colors[sl.tr.At(k)] = color
		}
		color++
	}
	return s
}

// --- events ---

// Arrive admits request i into a slot chosen by the admission policy,
// opening a new slot when no existing one can take it, and returns the
// slot index. Rejections are typed and mutate nothing: ErrUnknownRequest
// (out of range), ErrDuplicateArrive (already active), ErrDraining
// (BeginDrain), ErrTrackerUnavailable (provider failure past the retry
// budget), and ErrUnschedulable (infeasible even alone).
func (e *Engine) Arrive(i int) (int, error) {
	var start time.Time
	if e.deadline > 0 || e.col.Enabled() {
		start = time.Now()
		e.evStart = start
	}
	if i < 0 || i >= e.in.N() {
		return -1, fmt.Errorf("Arrive(%d): %w: out of range [0,%d)", i, ErrUnknownRequest, e.in.N())
	}
	if e.draining {
		return -1, fmt.Errorf("Arrive(%d): %w", i, ErrDraining)
	}
	if e.slotOf[i] >= 0 {
		return -1, fmt.Errorf("Arrive(%d): %w: already in slot %d", i, ErrDuplicateArrive, e.slotOf[i])
	}
	s := e.admit(i)
	if s < 0 {
		tr := e.newTracker()
		if tr == nil {
			return -1, fmt.Errorf("Arrive(%d): %w", i, ErrTrackerUnavailable)
		}
		s = len(e.slots)
		sl := &slot{tr: tr, minLen: math.Inf(1)}
		if !e.canAdd(sl, i) {
			sl.tr.Reset()
			e.free = append(e.free, sl.tr)
			return -1, fmt.Errorf("%w: request %d", ErrUnschedulable, i)
		}
		e.slots = append(e.slots, sl)
	}
	e.place(i, s)
	e.active++
	e.stats.Arrivals++
	e.cArrive.Inc()
	if len(e.slots) > e.stats.PeakSlots {
		e.stats.PeakSlots = len(e.slots)
	}
	if e.col.Enabled() {
		lat := time.Since(start).Nanoseconds()
		e.hArrive.Observe(lat)
		e.gSlots.Set(float64(len(e.slots)))
		e.gActive.Set(float64(e.active))
		if e.col.Tracing() {
			e.col.Emit(obs.Event{
				Type: obs.EventArrive, Req: i, Slot: s,
				Margin: e.slots[s].tr.Margin(i), LatencyNs: lat,
			})
		}
	}
	return s, nil
}

// Depart removes request i from its slot and runs the repair strategy.
// With tracing on, the repair events a departure triggers precede its
// own Depart event: events are emitted when their work completes, and
// the departure completes only after repair. Rejections are typed and
// mutate nothing: ErrUnknownRequest covers both an out-of-range id and
// a request that is not currently active. Departures are always served,
// draining or not.
func (e *Engine) Depart(i int) error {
	var start time.Time
	if e.deadline > 0 || e.col.Enabled() {
		start = time.Now()
		e.evStart = start
	}
	if i < 0 || i >= e.in.N() {
		return fmt.Errorf("Depart(%d): %w: out of range [0,%d)", i, ErrUnknownRequest, e.in.N())
	}
	s := e.slotOf[i]
	if s < 0 {
		return fmt.Errorf("Depart(%d): %w: not active", i, ErrUnknownRequest)
	}
	var mg float64
	if e.col.Tracing() {
		mg = e.slots[s].tr.Margin(i)
	}
	e.unplace(i, s)
	e.active--
	e.stats.Departures++
	e.cDepart.Inc()
	e.runRepair()
	if e.col.Enabled() {
		lat := time.Since(start).Nanoseconds()
		e.hDepart.Observe(lat)
		e.gSlots.Set(float64(len(e.slots)))
		e.gActive.Set(float64(e.active))
		if e.col.Tracing() {
			e.col.Emit(obs.Event{
				Type: obs.EventDepart, Req: i, Slot: s,
				Margin: mg, LatencyNs: lat,
			})
		}
	}
	return nil
}

// admit picks the slot for request i under the admission policy, or -1
// when no existing slot can take it.
func (e *Engine) admit(i int) int {
	switch e.admission {
	case FirstFit:
		for s, sl := range e.slots {
			if e.canAdd(sl, i) {
				return s
			}
		}
	case BestFit:
		best, bestMargin := -1, math.Inf(1)
		for s, sl := range e.slots {
			// Deadline pressure degrades the scan to first-fit (rung 1 of
			// the degradation ladder, degrade.go): keep the best slot found
			// so far, or fall through to the first feasible remaining one.
			// The clock is polled every 8 slots so the disabled path and
			// the common under-budget path stay branch-cheap.
			if e.deadline > 0 && s&7 == 7 && e.overBudget() {
				e.shed()
				if best >= 0 {
					return best
				}
				for t := s; t < len(e.slots); t++ {
					if e.canAdd(e.slots[t], i) {
						return t
					}
				}
				return -1
			}
			// Margin first: a slot that is infeasible for the candidate or
			// no tighter than the current best needs no member scan.
			mg := e.addMargin(sl, i)
			if mg < -sinr.Tol || mg >= bestMargin {
				continue
			}
			if e.canAdd(sl, i) {
				best, bestMargin = s, mg
			}
		}
		return best
	case PowerFit:
		// First pass: only slots whose members are all at least as long as
		// the arrival, so lengths within a slot stay non-increasing over
		// time like the batch greedy's longest-first scan.
		for s, sl := range e.slots {
			if sl.minLen >= e.lens[i] && e.canAdd(sl, i) {
				return s
			}
		}
		for s, sl := range e.slots {
			if sl.minLen < e.lens[i] && e.canAdd(sl, i) {
				return s
			}
		}
	}
	return -1
}

// --- repair ---

// runRepair applies the configured strategy after a departure. Any
// change to the schedule — a trailing trim, an empty-slot deletion, or a
// migration — counts as one repair, uniformly across strategies. Under
// deadline pressure a due compaction is deferred instead (rung 2 of the
// degradation ladder): the debt saturates at the repair budget, and the
// next departure that is still under budget — or that finds the budget
// exhausted — pays the whole debt with one compaction pass.
func (e *Engine) runRepair() {
	changed := e.trimTail()
	wantCompact := false
	switch e.repair {
	case LazyRepair:
		// Trailing trim only.
	case ThresholdRepair:
		if empty := e.emptySlots(); empty > 0 && float64(empty) >= compactThreshold*float64(len(e.slots)) {
			wantCompact = true
		}
	case EagerRepair:
		wantCompact = true
	}
	if !wantCompact && e.repairDebt > 0 && e.repair != LazyRepair {
		// A deferred pass is owed from an earlier over-budget departure.
		wantCompact = true
	}
	if wantCompact {
		if e.deadline > 0 && e.repairDebt < repairBudget && e.overBudget() {
			e.repairDebt++
			e.stats.DeferredRepairs++
			e.cDeferred.Inc()
		} else {
			changed = e.compact() || changed
			e.repairDebt = 0
		}
	}
	if changed {
		e.stats.Repairs++
		e.cRepair.Inc()
		if e.col.Tracing() {
			e.col.Emit(obs.Event{Type: obs.EventRepair, Req: -1, Slot: len(e.slots)})
		}
	}
}

// trimTail pops empty slots off the end of the schedule — always safe and
// O(1) per trimmed slot, so every strategy does it.
func (e *Engine) trimTail() bool {
	trimmed := false
	for len(e.slots) > 0 && e.slots[len(e.slots)-1].tr.Len() == 0 {
		e.recycle(e.slots[len(e.slots)-1])
		e.slots = e.slots[:len(e.slots)-1]
		trimmed = true
	}
	return trimmed
}

func (e *Engine) emptySlots() int {
	empty := 0
	for _, sl := range e.slots {
		if sl.tr.Len() == 0 {
			empty++
		}
	}
	return empty
}

// compact shrinks the schedule in two phases: delete every empty slot,
// then repeatedly try to dissolve the smallest remaining slot by migrating
// its members into others. Each migration is a Remove feasibility-checked
// by CanAdd at the target, so the engine invariant survives even a partial
// dissolve (the moved members simply stay moved). It reports whether the
// schedule changed.
func (e *Engine) compact() bool {
	changed := false
	w := 0
	for _, sl := range e.slots {
		if sl.tr.Len() == 0 {
			e.recycle(sl)
			changed = true
			continue
		}
		e.slots[w] = sl
		w++
	}
	if w != len(e.slots) {
		e.slots = e.slots[:w]
		e.renumber()
	}
	for len(e.slots) > 1 {
		k, size := -1, math.MaxInt
		for s, sl := range e.slots {
			if l := sl.tr.Len(); l < size {
				k, size = s, l
			}
		}
		moved, dissolved := e.tryDissolve(k)
		changed = changed || moved
		if !dissolved {
			break
		}
		e.stats.Repacks++
		e.cRepack.Inc()
	}
	if changed && e.col.Tracing() {
		e.col.Emit(obs.Event{Type: obs.EventCompact, Req: -1, Slot: len(e.slots)})
	}
	return changed
}

// tryDissolve migrates the members of slot k into other slots (first
// feasible target). It reports whether anything moved and whether the slot
// emptied out and was deleted.
func (e *Engine) tryDissolve(k int) (moved, dissolved bool) {
	members := e.slots[k].tr.Members()
	for _, i := range members {
		target := -1
		for s, sl := range e.slots {
			if s != k && e.canAdd(sl, i) {
				target = s
				break
			}
		}
		if target < 0 {
			continue
		}
		if e.col.Tracing() {
			e.col.Emit(obs.Event{
				Type: obs.EventEvict, Req: i, Slot: k,
				Margin: e.slots[k].tr.Margin(i),
			})
		}
		e.unplace(i, k)
		e.place(i, target)
		e.stats.Moves++
		e.cMove.Inc()
		moved = true
		if e.col.Tracing() {
			e.col.Emit(obs.Event{
				Type: obs.EventAdmit, Req: i, Slot: target,
				Margin: e.slots[target].tr.Margin(i),
			})
		}
	}
	if e.slots[k].tr.Len() > 0 {
		return moved, false
	}
	e.recycle(e.slots[k])
	e.slots = append(e.slots[:k], e.slots[k+1:]...)
	e.renumber()
	return moved, true
}

// renumber rebuilds slotOf after slot indices shifted — O(active).
func (e *Engine) renumber() {
	for s, sl := range e.slots {
		for k := 0; k < sl.tr.Len(); k++ {
			e.slotOf[sl.tr.At(k)] = s
		}
	}
}

// --- tracker plumbing (with RowOps accounting) ---

// newTracker returns an empty slot tracker: a pooled one (Reset by
// recycle on the way in) when available, else a fresh one from the
// affectance engine. An engine that transiently fails (returns nil) is
// retried with exponential backoff up to the WithRetry budget — rung 3
// of the degradation ladder — and nil is returned only once the budget
// is exhausted; Arrive translates that into ErrTrackerUnavailable
// without mutating any state.
func (e *Engine) newTracker() sinr.SetTracker {
	if n := len(e.free); n > 0 {
		tr := e.free[n-1]
		e.free = e.free[:n-1]
		return tr
	}
	tr := e.eng.NewSetTracker(e.m, e.v)
	backoff := e.retryBackoff
	for attempt := 0; tr == nil && attempt < e.retryAttempts; attempt++ {
		e.stats.Retries++
		e.cRetry.Inc()
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		tr = e.eng.NewSetTracker(e.m, e.v)
	}
	return tr
}

func (e *Engine) recycle(sl *slot) {
	sl.tr.Reset()
	e.free = append(e.free, sl.tr)
}

//oblint:hotpath
func (e *Engine) canAdd(sl *slot, i int) bool {
	e.stats.RowOps += int64(sl.tr.Len()) + 1
	return sl.tr.CanAdd(i)
}

//oblint:hotpath
func (e *Engine) addMargin(sl *slot, i int) float64 {
	e.stats.RowOps += int64(sl.tr.Len()) + 1
	return sl.tr.AddMargin(i)
}

// place inserts request i into slot s (which must have passed canAdd).
// Slot trackers are live classes: they are Reset by recycle on the way
// into the free pool, never here.
//
//oblint:fresh slot trackers are Reset by recycle when pooled
//oblint:hotpath
func (e *Engine) place(i, s int) {
	sl := e.slots[s]
	e.stats.RowOps += int64(sl.tr.Len()) + 1
	sl.tr.Add(i)
	e.slotOf[i] = s
	if e.lens[i] < sl.minLen {
		sl.minLen = e.lens[i]
	}
}

// unplace removes request i from slot s, maintaining the slot's minimum
// member length for the power-fit scan.
//
//oblint:hotpath
func (e *Engine) unplace(i, s int) {
	sl := e.slots[s]
	e.stats.RowOps += int64(sl.tr.Len()) + 1
	sl.tr.Remove(i)
	e.slotOf[i] = -1
	if sl.tr.Len() == 0 {
		sl.minLen = math.Inf(1)
	} else if e.lens[i] == sl.minLen {
		sl.minLen = math.Inf(1)
		for k := 0; k < sl.tr.Len(); k++ {
			if l := e.lens[sl.tr.At(k)]; l < sl.minLen {
				sl.minLen = l
			}
		}
	}
}
