// Package distributed implements a slotted, fully distributed contention
// protocol for the bidirectional interference scheduling problem under an
// oblivious power assignment — an experimental answer to the open question
// of Section 6 of the paper ("is there a distributed coloring procedure
// with the same kind of performance guarantee?").
//
// Oblivious assignments need no coordination to pick powers; the only
// remaining coordination problem is who transmits when. The protocol is a
// classic decay scheme: in every slot each pending request transmits with
// its current probability; a transmission succeeds if its SINR constraint
// holds against all simultaneously transmitting requests, and failures
// back off multiplicatively. The slot of first success is the request's
// color, so the produced schedule is feasible by construction (removing
// failed transmitters from a slot only lowers interference).
//
// Exported entry points:
//
//   - Protocol carries the power assignment; Default returns the square
//     root one the experiments use. The decay parameters are fixed: a
//     fresh request transmits with probability 1/2, each failure halves
//     it down to a floor of 1/64, and a run that has not drained after
//     64·n + 1024 slots fails with ErrSlotsExhausted.
//   - Protocol.Run / RunContext simulate the protocol and report the
//     induced Schedule plus Slots/Attempts/Failures counters. The
//     simulator takes its engine from affect.Resolve, precomputing the
//     dense affectance matrices unless the model carries a covering
//     engine. Over the dense engine each slot's SINR success checks are
//     row sums (affect.Rows.InterferenceBound) turned into margins by
//     the model's formula (sinr.Model.SignalMargin); over any other
//     engine (the sparse one, so the protocol scales past the dense
//     memory wall, or the matrix-free direct engine)
//     they run on one recycled sinr.SetTracker.
package distributed
