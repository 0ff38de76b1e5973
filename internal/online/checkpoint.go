// Checkpoint/Restore: crash recovery for the online engine. A
// checkpoint serializes the engine's logical state — the slot
// membership lists (in insertion order, empty interior slots included),
// the policy configuration, the drain flag, and the lifetime counters —
// but none of the derived structures: trackers, accumulators, and the
// affectance engine are rebuilt on restore and the result is
// re-verified slot by slot, so a corrupted or stale checkpoint fails
// loudly (ErrBadCheckpoint) instead of resurrecting an infeasible
// schedule. Restore(Checkpoint()) round-trips bitwise: the restored
// engine's Snapshot and a second Checkpoint equal the originals.
package online

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/problem"
	"repro/internal/sinr"
)

// CheckpointVersion is the format version written by Checkpoint and the
// only one Restore accepts.
const CheckpointVersion = 1

// Checkpoint is the serializable state of an Engine. The slot members
// are stored in tracker insertion order so the restored trackers
// reproduce the same internal order (and hence the same Snapshot and
// power-fit minima) as the checkpointed engine.
type Checkpoint struct {
	// Version is the checkpoint format version (CheckpointVersion).
	Version int `json:"version"`
	// N is the instance size the checkpoint was taken against; Restore
	// rejects a checkpoint whose N differs from its instance.
	N int `json:"n"`
	// Variant names the SINR constraint variant ("directed" or
	// "bidirectional").
	Variant string `json:"variant"`
	// Admission and Repair name the policies by their CLI names.
	Admission string `json:"admission"`
	Repair    string `json:"repair"`
	// Draining records whether the engine was draining.
	Draining bool `json:"draining,omitempty"`
	// Slots holds each slot's members in insertion order. Empty slots
	// are kept (as empty lists) so slot indices — live colors under
	// LazyRepair — survive the round trip.
	Slots [][]int `json:"slots"`
	// Stats carries the lifetime counters for continuity across the
	// restart.
	Stats Stats `json:"stats"`
}

// Checkpoint captures the engine's current state. The engine is not
// mutated; with a collector attached the "engine/checkpoints" counter
// is incremented.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:   CheckpointVersion,
		N:         e.in.N(),
		Variant:   e.v.String(),
		Admission: e.admission.String(),
		Repair:    e.repair.String(),
		Draining:  e.draining,
		Slots:     make([][]int, len(e.slots)),
		Stats:     e.stats,
	}
	for s, sl := range e.slots {
		cp.Slots[s] = sl.tr.Members()
	}
	if e.col.Enabled() {
		e.col.Counter("engine/checkpoints").Inc()
	}
	return cp
}

// WriteCheckpoint serializes the checkpoint as indented JSON.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint. Format
// errors wrap ErrBadCheckpoint; semantic validation happens in Restore,
// which knows the instance.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// Restore rebuilds an engine from a checkpoint: it re-creates the slot
// trackers, re-inserts every member in checkpoint order, re-verifies
// that every slot passes SetFeasible, and restores the policy
// configuration and lifetime counters. Options are applied on top of
// the checkpointed configuration (an explicit WithObserver or
// WithDeadline composes; overriding the admission or repair policy is
// allowed and takes effect from the next event). Every validation
// failure — size mismatch, unknown policy or variant names, duplicate
// or out-of-range members, an infeasible slot — wraps ErrBadCheckpoint.
// With a collector attached the "engine/restores" counter is
// incremented on success.
func Restore(m sinr.Model, in *problem.Instance, powers []float64, cp *Checkpoint, opts ...Option) (*Engine, error) {
	if cp == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, cp.Version, CheckpointVersion)
	}
	if in != nil && cp.N != in.N() {
		return nil, fmt.Errorf("%w: checkpoint for %d requests, instance has %d", ErrBadCheckpoint, cp.N, in.N())
	}
	var v sinr.Variant
	switch cp.Variant {
	case sinr.Directed.String():
		v = sinr.Directed
	case sinr.Bidirectional.String():
		v = sinr.Bidirectional
	default:
		return nil, fmt.Errorf("%w: unknown variant %q", ErrBadCheckpoint, cp.Variant)
	}
	adm, err := ParseAdmission(cp.Admission)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	rep, err := ParseRepair(cp.Repair)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	base := []Option{WithAdmission(adm), WithRepair(rep)}
	e, err := New(m, in, v, powers, append(base, opts...)...)
	if err != nil {
		return nil, err
	}
	for s, members := range cp.Slots {
		tr := e.newTracker()
		if tr == nil {
			return nil, fmt.Errorf("restore slot %d: %w", s, ErrTrackerUnavailable)
		}
		e.slots = append(e.slots, &slot{tr: tr, minLen: math.Inf(1)})
		for _, i := range members {
			if i < 0 || i >= e.in.N() {
				return nil, fmt.Errorf("%w: slot %d member %d out of range [0,%d)", ErrBadCheckpoint, s, i, e.in.N())
			}
			if e.slotOf[i] >= 0 {
				return nil, fmt.Errorf("%w: request %d appears in slots %d and %d", ErrBadCheckpoint, i, e.slotOf[i], s)
			}
			e.place(i, s)
			e.active++
		}
	}
	// Feasibility is re-proved from scratch through the fresh trackers:
	// a checkpoint edited by hand, taken against different powers, or
	// truncated mid-write must not come back as a running engine.
	for s, sl := range e.slots {
		if sl.tr.Len() > 0 && !sl.tr.SetFeasible() {
			return nil, fmt.Errorf("%w: slot %d infeasible after restore", ErrBadCheckpoint, s)
		}
	}
	// Counter continuity: overwrite last, so the rebuild's own probe and
	// row-op accounting does not leak into the restored lifetime stats
	// and Checkpoint(Restore(cp)) round-trips bitwise.
	e.stats = cp.Stats
	if len(e.slots) > e.stats.PeakSlots {
		e.stats.PeakSlots = len(e.slots)
	}
	e.draining = cp.Draining
	if e.col.Enabled() {
		e.col.Counter("engine/restores").Inc()
		e.gSlots.Set(float64(len(e.slots)))
		e.gActive.Set(float64(e.active))
	}
	return e, nil
}
