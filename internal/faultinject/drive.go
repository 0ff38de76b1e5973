package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/online"
)

// Options configures a Drive replay.
type Options struct {
	// AbortAt stops the replay just before event AbortAt — the crash
	// model. The engine is left in the consistent post-event state of
	// event AbortAt-1, ready to be checkpointed. Negative means never.
	AbortAt int
}

// Result reports what a Drive replay did.
type Result struct {
	// Applied counts events the engine accepted.
	Applied int
	// Rejected counts events the engine rejected with the expected
	// sentinel (and, as verified, without mutating any state).
	Rejected int
	// TrackerUnavailable counts arrivals that failed with
	// online.ErrTrackerUnavailable — legal under injected provider
	// faults that outlast the retry budget, and verified mutation-free.
	TrackerUnavailable int
	// Aborted reports a planned AbortAt stop or a context cancellation.
	Aborted bool
	// Stats is the engine's counters after the replay.
	Stats online.Stats
}

// Drive replays a hostile trace against the engine, enforcing after
// every event that the engine did exactly what the failure model
// promises:
//
//   - an event the misuse automaton expects to succeed must succeed —
//     or, for arrivals only, fail with online.ErrTrackerUnavailable
//     when injected provider faults outlast the retry budget;
//   - an event expected to be rejected must fail with exactly the
//     stamped sentinel (errors.Is), and must not change Stats, the slot
//     count, the active count, or the request's slot assignment;
//   - every slot must pass SetFeasible after every event.
//
// Expectations are derived dynamically from the engine's actual
// outcomes rather than read from TraceEvent.Want: a tracker-starved
// arrival leaves its request inactive, which legally turns the
// request's later departure into an ErrUnknownRequest rejection. When
// no resource faults fire, the dynamic expectations coincide with the
// static Classify stamps. A drain toggled mid-replay (BeginDrain) is
// honored: arrivals are then expected to fail with ErrDraining.
//
// The first violation aborts the replay with a descriptive error; a
// context cancellation or a reached AbortAt returns the partial Result
// with Aborted set and no error — the crash model leaves the engine
// consistent and checkpointable.
func Drive(ctx context.Context, eng *online.Engine, ft FaultTrace, o Options) (*Result, error) {
	if eng == nil {
		return nil, errors.New("faultinject: nil engine")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := eng.N()
	active := make([]bool, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		active[i] = eng.SlotOf(i) >= 0
	}
	res := &Result{}
	defer func() { res.Stats = eng.Stats() }()
	for k := range ft {
		if ctx.Err() != nil || k == o.AbortAt {
			res.Aborted = true
			return res, nil
		}
		ev := ft[k]
		// Dynamic expectation from the live model.
		var want error
		switch {
		case ev.Req < 0 || ev.Req >= n:
			want = online.ErrUnknownRequest
		case ev.Arrive && active[ev.Req]:
			want = online.ErrDuplicateArrive
		case !ev.Arrive && !active[ev.Req]:
			want = online.ErrUnknownRequest
		case ev.Arrive && eng.Draining():
			want = online.ErrDraining
		}
		before := eng.Stats()
		slotsBefore, activeBefore := eng.NumSlots(), eng.Len()
		assignBefore := -1
		if ev.Req >= 0 && ev.Req < n {
			assignBefore = eng.SlotOf(ev.Req)
		}
		var err error
		if ev.Arrive {
			_, err = eng.Arrive(ev.Req)
		} else {
			err = eng.Depart(ev.Req)
		}
		switch {
		case want != nil:
			if !errors.Is(err, want) {
				return res, fmt.Errorf("faultinject: event %d (%+v): got error %v, want %v", k, ev.Event, err, want)
			}
			if err := unchanged(eng, before, slotsBefore, activeBefore, ev.Req, assignBefore); err != nil {
				return res, fmt.Errorf("faultinject: event %d (%+v): rejection mutated state: %w", k, ev.Event, err)
			}
			res.Rejected++
		case err == nil:
			active[ev.Req] = ev.Arrive
			res.Applied++
		case ev.Arrive && errors.Is(err, online.ErrTrackerUnavailable):
			if err := unchanged(eng, statsLessProbeWork(before, eng.Stats()), slotsBefore, activeBefore, ev.Req, assignBefore); err != nil {
				return res, fmt.Errorf("faultinject: event %d (%+v): tracker failure mutated state: %w", k, ev.Event, err)
			}
			res.TrackerUnavailable++
		default:
			return res, fmt.Errorf("faultinject: event %d (%+v): unexpected error %v", k, ev.Event, err)
		}
		if !eng.Feasible() {
			return res, fmt.Errorf("faultinject: event %d (%+v): engine infeasible", k, ev.Event)
		}
	}
	return res, nil
}

// statsLessProbeWork carries the counters a tracker-starved arrival
// legitimately advances — the retry count and the RowOps of the
// read-only admission probes that ran before the new-slot attempt
// failed — from after into before, so unchanged compares everything
// else bitwise.
func statsLessProbeWork(before, after online.Stats) online.Stats {
	before.Retries = after.Retries
	before.RowOps = after.RowOps
	return before
}

// unchanged verifies the no-mutation-on-rejection contract: the
// lifetime counters, the slot count, the active count, and the rejected
// request's assignment are all exactly as before the call.
func unchanged(eng *online.Engine, before online.Stats, slots, activeN, req, assign int) error {
	if got := eng.Stats(); got != before {
		return fmt.Errorf("stats changed: %+v -> %+v", before, got)
	}
	if got := eng.NumSlots(); got != slots {
		return fmt.Errorf("slot count changed: %d -> %d", slots, got)
	}
	if got := eng.Len(); got != activeN {
		return fmt.Errorf("active count changed: %d -> %d", activeN, got)
	}
	if req >= 0 && req < eng.N() {
		if got := eng.SlotOf(req); got != assign {
			return fmt.Errorf("request %d moved: slot %d -> %d", req, assign, got)
		}
	}
	return nil
}

// CountingSink is an obs.Sink that counts events per type and verifies
// the collector's strictly-increasing sequence contract. Safe for
// concurrent use: the race chaos tests read counts while the engine
// emits.
type CountingSink struct {
	mu      sync.Mutex
	counts  map[obs.EventType]int
	lastSeq uint64
	seen    bool
	seqErr  error
}

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{counts: make(map[obs.EventType]int)}
}

// Emit implements obs.Sink.
func (s *CountingSink) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[ev.Type]++
	if s.seen && ev.Seq <= s.lastSeq && s.seqErr == nil {
		s.seqErr = fmt.Errorf("faultinject: event seq went %d -> %d", s.lastSeq, ev.Seq)
	}
	s.lastSeq = ev.Seq
	s.seen = true
}

// Count returns the number of events of the given type seen so far.
func (s *CountingSink) Count(t obs.EventType) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[t]
}

// SeqError returns the first sequence-ordering violation, or nil.
func (s *CountingSink) SeqError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqErr
}

// Reconcile checks the typed event stream against the engine's
// counters: accepted arrivals, departures, repair passes, and repair
// migrations (one evict plus one admit each) must agree exactly. It
// assumes the sink was attached before the engine processed its first
// event and the engine's stats started from zero (not restored from a
// checkpoint).
func (s *CountingSink) Reconcile(st online.Stats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.seqErr; err != nil {
		return err
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"arrive", s.counts[obs.EventArrive], st.Arrivals},
		{"depart", s.counts[obs.EventDepart], st.Departures},
		{"repair", s.counts[obs.EventRepair], st.Repairs},
		{"evict", s.counts[obs.EventEvict], st.Moves},
		{"admit", s.counts[obs.EventAdmit], st.Moves},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("faultinject: event stream disagrees with stats: %s events %d, stats %d", c.name, c.got, c.want)
		}
	}
	return nil
}
