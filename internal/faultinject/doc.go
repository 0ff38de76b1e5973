// Package faultinject is the seeded, deterministic chaos harness of the
// online scheduling engine. It attacks the engine from every side the
// daemon roadmap item will expose it on, and verifies after every blow
// that the core invariant — every slot passes sinr.SetTracker.SetFeasible,
// and the typed event stream reconciles with the engine's Stats — still
// holds:
//
//   - WrapCache wraps an affectance engine (a dense cache or the sparse
//     engine, taken through affect.EngineOf) as a fault-injecting
//     affect.Engine: transient NewSetTracker failures (exercising
//     the engine's WithRetry backoff ladder) and per-operation latency
//     spikes on the returned trackers (exercising WithDeadline shedding
//     and repair deferral);
//   - Mutate rewrites a well-formed sim.Trace into a hostile one —
//     duplicate arrivals, departures of unknown or out-of-range
//     requests, reordered event pairs, burst floods — and Classify
//     stamps every event with the exact sentinel error the engine must
//     reject it with (nil for events that must succeed);
//   - Drive replays a classified trace, enforcing the expected outcome
//     of every event, the no-mutation-on-rejection contract, and the
//     per-event feasibility invariant; an AbortAt index models a crash
//     mid-trace, after which the caller checkpoints and restores.
//
// Everything is driven by a caller-provided seed: the same seed, trace
// and configuration reproduce the same faults in the same order, so a
// CI failure replays locally with one number.
package faultinject
