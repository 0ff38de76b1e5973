package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/affect"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// The decay scheme's parameters: a fresh request transmits with
// probability initialProb, a failed attempt multiplies it by backoff, and
// it never drops below minProb.
const (
	initialProb = 0.5
	backoff     = 0.5
	minProb     = 1.0 / 64
)

// Protocol configures the contention scheme. The zero value is invalid;
// use Default.
type Protocol struct {
	// Assignment is the oblivious power assignment every node applies
	// locally (the paper's motivation for obliviousness).
	Assignment power.Assignment
}

// Default returns the protocol the experiments run: square root powers.
func Default() Protocol {
	return Protocol{Assignment: power.Sqrt()}
}

// Result reports one protocol run.
type Result struct {
	// Schedule is the feasible schedule induced by the success slots
	// (colors compressed to be contiguous).
	Schedule *problem.Schedule
	// Slots is the number of contention slots until the last success; the
	// distributed analogue of the schedule length.
	Slots int
	// Attempts is the total number of transmission attempts.
	Attempts int
	// Failures is the number of failed attempts.
	Failures int
}

// ErrSlotsExhausted is returned when the protocol fails to drain the
// request set within its budget of 64·n + 1024 slots, as on an instance
// where some request fails even alone (noise above its signal).
var ErrSlotsExhausted = errors.New("distributed: slot budget exhausted")

// Run simulates the protocol on a bidirectional instance.
func (p Protocol) Run(m sinr.Model, in *problem.Instance, rng *rand.Rand) (*Result, error) {
	return p.RunContext(context.Background(), m, in, rng)
}

// RunContext is Run with cooperative cancellation: the context is checked
// every contention slot, so a canceled ctx aborts a long simulation.
func (p Protocol) RunContext(ctx context.Context, m sinr.Model, in *problem.Instance, rng *rand.Rand) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("distributed: nil rng")
	}
	if p.Assignment == nil {
		return nil, errors.New("distributed: nil assignment")
	}
	maxSlots := 64*in.N() + 1024

	powers := power.Powers(m, in, p.Assignment)
	// Every slot probes feasibility against the active set; precompute the
	// affectance matrices once so those probes are row sums. A caller that
	// pre-attached a covering engine (the sparse grid or the direct one)
	// wins.
	if m.CacheFor(in, powers) == nil {
		m = m.WithCache(affect.New(m, sinr.Bidirectional, in, powers))
	}
	eng := affect.Resolve(m, sinr.Bidirectional, in, powers)
	signals := eng.Signals()
	// The dense engine checks each success with its row sums, through the
	// model's margin formula: running the checks on its trackers measured
	// 10–19% slower for build plus run at n = 512 and n = 2000. Every
	// other engine (sparse, direct) runs them on one recycled
	// sinr.SetTracker: add the slot's active set, read each member's
	// margin, Reset. Sparse margins are lower bounds on the exact ones, so
	// a declared success is always a true success — the protocol stays
	// correct, at worst a failed attempt is re-contended.
	var tracker sinr.SetTracker
	if _, dense := eng.(affect.Rows); !dense {
		tracker = eng.NewSetTracker(m, sinr.Bidirectional)
	}
	s := problem.NewSchedule(in.N())
	copy(s.Powers, powers)

	prob := make([]float64, in.N())
	pending := make([]int, 0, in.N())
	for i := range prob {
		prob[i] = initialProb
		pending = append(pending, i)
	}

	res := &Result{}
	var successSlots []int // slot of success per request (parallel to Colors)
	successSlots = make([]int, in.N())

	slot := 0
	for ; len(pending) > 0 && slot < maxSlots; slot++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each pending request independently decides to transmit.
		var active []int
		for _, i := range pending {
			if rng.Float64() < prob[i] {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			continue
		}
		res.Attempts += len(active)
		// A transmission succeeds if its own SINR constraint holds against
		// the full active set (success is a local property: each endpoint
		// decodes or it does not).
		var succeeded []int
		if tracker != nil {
			tracker.Reset()
			for _, i := range active {
				tracker.Add(i)
			}
			for _, i := range active {
				if tracker.Margin(i) >= -sinr.Tol {
					succeeded = append(succeeded, i)
				}
			}
		} else {
			for _, i := range active {
				u, v := eng.InterferenceBound(active, i)
				if m.SignalMargin(sinr.Bidirectional, signals[i], u, v) >= -sinr.Tol {
					succeeded = append(succeeded, i)
				}
			}
		}
		res.Failures += len(active) - len(succeeded)
		if len(succeeded) == 0 {
			for _, i := range active {
				if prob[i] *= backoff; prob[i] < minProb {
					prob[i] = minProb
				}
			}
			continue
		}
		done := make(map[int]bool, len(succeeded))
		for _, i := range succeeded {
			done[i] = true
			successSlots[i] = slot
		}
		next := pending[:0]
		for _, i := range pending {
			if !done[i] {
				next = append(next, i)
				if contains(active, i) {
					if prob[i] *= backoff; prob[i] < minProb {
						prob[i] = minProb
					}
				}
			}
		}
		pending = next
		res.Slots = slot + 1
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("%w: %d requests pending after %d slots", ErrSlotsExhausted, len(pending), maxSlots)
	}

	// Compress success slots into contiguous colors.
	slotColor := make(map[int]int)
	for _, sl := range successSlots {
		if _, ok := slotColor[sl]; !ok {
			slotColor[sl] = 0
		}
	}
	ordered := make([]int, 0, len(slotColor))
	for sl := range slotColor {
		ordered = append(ordered, sl)
	}
	sort.Ints(ordered)
	for c, sl := range ordered {
		slotColor[sl] = c
	}
	for i := range s.Colors {
		s.Colors[i] = slotColor[successSlots[i]]
	}
	res.Schedule = s
	return res, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
